"""Byte identity of the block writers against the row-by-row writers they replace.

The oracles below are the row-by-row writers that the block writers replaced:
`csv.writer` with `repr` values for `grid_to_csv`, `json.dump(.., indent=2)`
for the JSON grid, and one `%.17g` per field for `expsub limit`.
"""

import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expsub import GridData, basic_limit_samples, grid_to_csv, grid_to_json_obj
from expsub import engine
from expsub.cli import main
from expsub.engine import grid_to_json, write_rows
from expsub.files import load_scheme, scheme_file_for_catalog

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
