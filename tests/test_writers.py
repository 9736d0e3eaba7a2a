"""Byte identity of the block writers against the row-by-row writers they replace.

The oracles below are the row-by-row writers that the block writers replaced:
`csv.writer` with `repr` values for `grid_to_csv`, `json.dump(.., indent=2)`
for the JSON grid, and one `%.17g` per field for `expsub limit`.  `write_rows`
formats a constant column once and a repeating float column once per distinct
value; the tests from `pooled_columns` on draw columns long enough to reach
those paths.
"""

import contextlib
import csv
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expsub import GridData, basic_limit_samples, grid_from_json_obj, grid_to_csv, grid_to_json_obj, refine
from expsub import engine
from expsub.cli import main
from expsub.engine import grid_to_json, write_rows
from expsub.files import load_scheme, load_scheme_obj, scheme_file_for_catalog

# Signed zeros, subnormals, huge values and integers beyond 2^53, where
# `repr` and `%.17g` stop printing a decimal point or switch to exponents.
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 2.2250738585072014e-308,
    1e300, -1e300, 1.7976931348623157e308, 2.0**53, 2.0**53 + 2, -(2.0**60), 1e16, 1e-5,
    0.1, 1 / 3,
]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


def csv_oracle(g: GridData) -> str:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow([f"idx{i}" for i in range(g.s)] + ["re", "im"])
    idx, vals = g.points()
    for i, v in zip(idx.tolist(), vals.tolist()):
        w.writerow([*i, repr(v.real), repr(v.imag)])
    return buf.getvalue()


def json_oracle(g: GridData) -> str:
    buf = io.StringIO()
    json.dump(grid_to_json_obj(g), buf, indent=2)
    buf.write("\n")
    return buf.getvalue()


def limit_oracle(s: int, samples) -> str:
    lines = [",".join([f"t{i}" for i in range(s)] + ["re", "im"])]
    for t, v in samples:
        lines.append(",".join(format(float(x), ".17g") for x in (*t, v.real, v.imag)))
    return "\n".join(lines) + "\n"


def written(writer, g: GridData) -> str:
    buf = io.StringIO(newline="")
    writer(g, buf)
    return buf.getvalue()


@contextlib.contextmanager
def block_rows(n: int):
    saved = engine.BLOCK_ROWS
    engine.BLOCK_ROWS = n
    try:
        yield
    finally:
        engine.BLOCK_ROWS = saved


@st.composite
def grids(draw):
    s = draw(st.sampled_from([1, 2, 3]))
    offset = draw(st.tuples(*[st.integers(-(2**31) + 8, 2**31 - 8)] * s))
    local = draw(st.sets(st.tuples(*[st.integers(-4, 4)] * s), max_size=14))
    pts = sorted(tuple(o + x for o, x in zip(offset, p)) for p in local)
    vals = [complex(draw(FLOATS), draw(FLOATS)) for _ in pts]
    tau = tuple(draw(FLOATS) for _ in range(s))
    return GridData.from_points(s, draw(st.integers(0, 9)), np.array(pts, dtype=np.int64).reshape(-1, s),
                                np.array(vals, dtype=complex), tau=tau)


@given(grids(), st.integers(1, 5))
def test_grid_writers_match_row_by_row_writers(g, block):
    """Row counts that are not multiples of the block size, negative and large indices."""
    with block_rows(block):
        assert written(grid_to_csv, g) == csv_oracle(g)
        assert written(grid_to_json, g) == json_oracle(g)


@given(st.lists(st.tuples(FLOATS, FLOATS, FLOATS), max_size=12), st.integers(1, 5))
def test_g17_rows_match_per_field_format(rows, block):
    cols = [np.array(c, dtype=float) for c in zip(*rows)] or [np.zeros(0)] * 3
    buf = io.StringIO()
    with block_rows(block):
        write_rows(buf, "%.17g,%.17g,%.17g\n", cols)
    assert buf.getvalue() == "".join(
        ",".join(format(x, ".17g") for x in r) + "\n" for r in rows
    )


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2 * 1024 + 3])
def test_grid_writers_on_empty_single_and_multi_block_grids(s, n):
    """Real block size: a partial last block after two full ones."""
    rng = np.random.default_rng(7 + s)
    side = 4000 if s == 1 else 100
    flat = rng.choice(side**s, size=n, replace=False)
    pts = np.stack(np.unravel_index(flat, (side,) * s), axis=1) - side // 2
    vals = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n) - 1j * rng.normal(size=n)
    g = GridData.from_points(s, 1, pts, vals)
    assert len(g) == n
    assert written(grid_to_csv, g) == csv_oracle(g)
    assert written(grid_to_json, g) == json_oracle(g)


@pytest.mark.parametrize(
    "entry, params, rounds",
    [
        ("dual4_ternary", {"lambda": 1.1j}, 3),
        ("sqrt3", {"variant": "interpolatory"}, 2),
        ("exp_bspline", {"m": 2, "lambda": -0.6}, 1),
    ],
)
def test_limit_file_matches_per_field_format(tmp_path, entry, params, rounds):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(scheme_file_for_catalog(entry, **params)))
    out = tmp_path / "limit.csv"
    assert main(["limit", "--scheme", str(path), "--rounds", str(rounds), "--out", str(out)]) == 0
    scheme = load_scheme(str(path))
    expected = limit_oracle(scheme.M.s, basic_limit_samples(scheme, rounds))
    assert out.read_bytes() == expected.encode()


# -- columns that repeat ----------------------------------------------------------

NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
NONFINITE = [float("nan"), -float("nan"), NAN_PAYLOAD, float("inf"), -float("inf")]
# Longer than the sample that decides whether a column is counted in full.
LONG = engine.SAMPLE_RUNS * engine.SAMPLE_RUN + 1


def rows_oracle(row: str, cols, sep: str = "") -> str:
    return sep.join(row % r for r in zip(*(c.tolist() for c in cols)))


def written_rows(row: str, cols, sep: str = "") -> str:
    buf = io.StringIO()
    write_rows(buf, row, cols, sep)
    return buf.getvalue()


@st.composite
def pooled_columns(draw, values, n_min=LONG, n_max=3000):
    """Equal-length float columns, each constant, drawn from a pool of at most
    eight values (scattered, or in runs as refined data repeats), or distinct."""
    n = draw(st.integers(n_min, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["constant", "scattered", "runs", "distinct"]))
        pool = np.array(draw(st.lists(values, min_size=1, max_size=1 if kind == "constant" else 8)))
        if kind == "scattered":
            cols.append(pool[rng.integers(0, len(pool), n)])
        elif kind == "runs":
            cols.append(np.resize(np.repeat(pool, rng.integers(1, 40, len(pool))), n))
        elif kind == "constant":
            cols.append(np.full(n, pool[0]))
        else:
            cols.append(rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n))
    return cols


@given(pooled_columns(st.one_of(FLOATS, st.sampled_from(NONFINITE))), st.sampled_from([1, 3, 64, 1000]),
       st.sampled_from(["%.17g", "%r"]))
def test_pooled_columns_match_per_row_format(cols, block, fmt):
    """Small pools, runs, constants and distinct columns side by side; NaN
    payloads and signs, infinities and signed zeros among the pooled values."""
    row = ",".join([fmt] * len(cols)) + "\n"
    with block_rows(block):
        assert written_rows(row, cols) == rows_oracle(row, cols)


@pytest.mark.parametrize("fmt", ["%.17g", "%r"])
@pytest.mark.parametrize("zero, odd", [(0.0, -0.0), (-0.0, 0.0)])
@pytest.mark.parametrize("at", [0, 700, 2 * 1024 + 2])
def test_one_signed_zero_among_the_other_is_kept(fmt, zero, odd, at):
    """0.0 and -0.0 are equal as floats but are written differently."""
    col = np.full(2 * 1024 + 3, zero)
    col[at] = odd
    cols = [col, np.full(len(col), -0.0), np.full(len(col), 0.0)]
    row = "%s;%s;%s\r\n" % (fmt, fmt, fmt)
    text = written_rows(row, cols)
    assert text == rows_oracle(row, cols)
    assert text.splitlines()[at].split(";")[0] == fmt % odd


@pytest.mark.parametrize("value", [*NONFINITE, 0.0, -0.0, 5e-324, 1 / 3])
def test_constant_columns(value):
    n = 3 * 1024 + 5
    cols = [np.full(n, value), np.arange(n, dtype=float), np.full(n, value)]
    for row in ("%.17g,%.17g,%.17g\n", '{"a": %r, "b": %r, "c": %r}'):
        assert written_rows(row, cols, sep=",\n") == rows_oracle(row, cols, sep=",\n")


def test_nonfinite_values_in_a_direct_call():
    rng = np.random.default_rng(3)
    n = 5000
    pooled = np.array(NONFINITE + [1.5])[rng.integers(0, 6, n)]
    distinct = rng.normal(size=n)
    distinct[rng.integers(0, n, 50)] = float("inf")
    distinct[rng.integers(0, n, 50)] = float("nan")
    cols = [pooled, distinct, np.full(n, float("-inf")), np.full(n, NAN_PAYLOAD)]
    for fmt in ("%.17g", "%r"):
        row = ",".join([fmt] * 4) + "\n"
        assert written_rows(row, cols) == rows_oracle(row, cols)


@given(st.integers(LONG, 3000), st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 1024]))
def test_integer_index_columns(n, seed, block):
    """`%d` columns: constant, from a small pool, in runs, distinct and near the int64 limits."""
    rng = np.random.default_rng(seed)
    cols = [
        np.full(n, -(2**62), dtype=np.int64),
        rng.integers(-3, 4, n),
        np.sort(rng.integers(-(2**63), 2**63 - 1, 5, dtype=np.int64))[np.arange(n) * 5 // n],
        np.arange(n, dtype=np.int64) - n // 2,
        rng.normal(size=n),
    ]
    row = "%d,%d,%d,%d,%r\r\n"
    with block_rows(block):
        assert written_rows(row, cols) == rows_oracle(row, cols)


def test_repeating_float_columns_are_gathered_and_distinct_ones_are_not():
    """The paths above are reached: pools and runs pass the sample, distinct values do not."""
    rng = np.random.default_rng(5)
    n = 4000
    share = lambda col: np.divide(*engine._sampled(col.view(np.int64)))
    assert share(np.array([0.5, -0.0, 0.0])[rng.integers(0, 3, n)]) <= 3 / 256
    assert share(np.repeat(rng.normal(size=n // 20), 20)) <= engine.REPEAT_SHARE
    assert share(rng.normal(size=n)) == 1
    assert engine._sampled(np.full(n, -0.0).view(np.int64)) == (1, engine.SAMPLE_RUNS * engine.SAMPLE_RUN)
    col = np.array([0.0, -0.0] * 8)
    assert engine._gathered("%r", col.view(np.int64), col.dtype) == ["0.0", "-0.0"] * 8


@st.composite
def pooled_grids(draw):
    """Grids of LONG points or more whose values come from small pools."""
    s = draw(st.sampled_from([1, 2]))
    side = 1600 if s == 1 else 40
    pts = np.stack(np.unravel_index(np.arange(side**s), (side,) * s), axis=1) - side // 2
    re, im = draw(pooled_columns(FLOATS, n_min=side**s, n_max=side**s).filter(lambda c: len(c) >= 2))[:2]
    return GridData.from_points(s, 3, pts, re + 1j * im)


@given(pooled_grids(), st.sampled_from([1, 7, 1024]))
def test_grid_writers_on_pooled_values(g, block):
    """The CSV and JSON templates with their separators, over several blocks."""
    with block_rows(block):
        assert written(grid_to_csv, g) == csv_oracle(g)
        assert written(grid_to_json, g) == json_oracle(g)


def test_limit_file_of_a_2d_grid_matches_per_field_format(tmp_path):
    """4,096 rows whose coordinates repeat along and across the grid's rows,
    and whose imaginary parts are constant."""
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(scheme_file_for_catalog("exp_box_spline", n_dil=2, lam=(0.5, -0.3))))
    out = tmp_path / "limit.csv"
    assert main(["limit", "--scheme", str(path), "--rounds", "6", "--out", str(out)]) == 0
    samples = basic_limit_samples(load_scheme(str(path)), 6)
    assert len(samples) == 4096
    assert out.read_bytes() == limit_oracle(2, samples).encode()


def test_refine_file_with_repeating_values_matches_the_row_writers(tmp_path):
    """An explicit ternary exp_bspline refine on its stationary tail: each
    output is an input value times a power of the tail's r, so values repeat."""
    spec = scheme_file_for_catalog("exp_bspline", m=3, lam=-0.7)
    scheme = load_scheme_obj(spec)
    syms = [scheme.symbol(k).to_json_obj() for k in range(4)]
    explicit = {"name": "explicit exp_bspline", "dimension": 1, "dilation": [3], "kind": "explicit",
                "levels": syms[:3], "tail": syms[3]}
    rng = np.random.default_rng(11)
    grid = {"level": 3, "tau": [0.0],
            "values": [{"idx": [i], "re": rng.uniform(-1, 1), "im": rng.uniform(-1, 1)} for i in range(-40, 40)]}
    (tmp_path / "scheme.json").write_text(json.dumps(explicit))
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    expected = refine(load_scheme(str(tmp_path / "scheme.json")), grid_from_json_obj(grid), 4)
    assert len(np.unique(expected.points()[1].real)) < len(expected) / 4
    for suffix, oracle in ((".csv", csv_oracle), (".json", json_oracle)):
        out = tmp_path / ("refined" + suffix)
        assert main(["refine", "--scheme", str(tmp_path / "scheme.json"), "--input", str(tmp_path / "grid.json"),
                     "--levels", "4", "--out", str(out)]) == 0
        assert out.read_bytes() == oracle(expected).encode()
