"""Golden sha256 digests of `expsub limit` and `expsub refine` output files.

One case per geometry (M = 2, M = 3, 2I, the shear [[2,1],[0,2]] and the
sqrt3 matrix [[1,2],[-2,-1]]).  The digests were recorded with the row-by-row
writers (`csv.writer`, `json.dump(indent=2)`, one `%` per row) that the block
writers replaced, so any change to the bytes of an output file fails here.
"""

import hashlib
import json
import math

import pytest

from expsub.cli import main
from expsub.files import scheme_file_for_catalog

# name -> (catalog id, parameters, limit rounds, refine levels, input dimension)
CASES = {
    "M2_dual4_binary": ("dual4_binary", {"lambda": 0.9}, 5, 3, 1),
    "M3_dual4_ternary": ("dual4_ternary", {"lambda": 1.1j}, 3, 2, 1),
    "2I_butterfly": ("butterfly", {"lambda": (0.5 + 0j, 0.3 + 0j)}, 2, 2, 2),
    "shear_normalized": ("sheared_convolution", {"lambda": (0.6j, 0.9j), "normalized": True}, 3, 2, 2),
    "sqrt3_interpolatory": ("sqrt3", {"variant": "interpolatory"}, 2, 2, 2),
}

GOLDEN = {
    "M2_dual4_binary": {
        "limit": "7eb9cee6d52f4a356f5e0db5e99b068cf6550e542cc1dafd35835f464fddf5fb",
        "refine.csv": "93df1f7916caa9df8d8dbeedbb7f4c46aef7b52c985949efc717e983132b160f",
        "refine.json": "5d7d954b34d2f83a51f11d49d56b7320beb59c9fcce03ebcd082c6ba00c79829",
    },
    "M3_dual4_ternary": {
        "limit": "6c02723f10fcb96d5856b2bf0150c0e3c79c0b32ebebd5549a03405c434069c9",
        "refine.csv": "a4bbcce7286c4410e0cafef7f7282c30c640f6431d3ef3f03cdcdae4f3d2b24e",
        "refine.json": "22111d74c4b2bf31c8c413539e948fafa0029095a35a6818924156b4af948c0c",
    },
    "2I_butterfly": {
        "limit": "8e0febf3a1954a1b0ce508a6a4d5322fb3eed7f799f781cb12a63e7720103d67",
        "refine.csv": "1f5fd9a464a922ee65562c67f197c7c93f092f4a82a8bf630d12f658075c6500",
        "refine.json": "df55afcb840e6b9966e0b2d7e29dedc0662cb45e7f9a5fdf60081de149752c45",
    },
    "shear_normalized": {
        "limit": "3d636da6e117a296bbb8aaaa8956dfc621a0f4b0bcd17daeba09b66a6c5beeab",
        "refine.csv": "856e94dd94599ca0147033dce95636dfc3592d7851541315ae5391eea7c39f66",
        "refine.json": "a66dde4d6a1a0eba66db191a3b428c1ce62c415f6af50036e9941eceb4c13dbb",
    },
    "sqrt3_interpolatory": {
        "limit": "cc06650d68413106364e5467e6c895ef977618efbb13315eb148f6cd677f5a72",
        "refine.csv": "1fafd1bf7d0a16b27f1e1f973e4930882efe6caf4f5474f4f5949907dc7e7d9f",
        "refine.json": "97a011308a95c508a793d839b74071908c8828573d8989f3a769055febc6a8b4",
    },
}

# Values that print differently under repr and %.17g: signed zero, a
# subnormal, a large magnitude, an integer above 2^53 and a short decimal.
_SPECIAL = [-0.0, 5e-324, 1e200, 2.0**60, 0.1]


def _input_grid(s: int) -> dict:
    """A 5-point-wide input grid with negative indices and the special values."""
    pts = [(i,) for i in range(-3, 2)] if s == 1 else [(i, j) for i in range(-2, 1) for j in range(-1, 2)]
    values = []
    for n, p in enumerate(pts):
        re = _SPECIAL[n] if n < len(_SPECIAL) else math.sin(1.0 + n)
        values.append({"idx": list(p), "re": re, "im": math.cos(0.5 * n) - 0.25})
    return {"level": 0, "tau": [0.0] * s, "values": values}


def digests(tmp_path, name: str) -> dict:
    entry, params, rounds, levels, s = CASES[name]
    scheme = tmp_path / f"{name}.json"
    scheme.write_text(json.dumps(scheme_file_for_catalog(entry, **params)))
    grid = tmp_path / f"{name}_in.json"
    grid.write_text(json.dumps(_input_grid(s)))
    outs = {"limit": tmp_path / f"{name}_limit.csv"}
    assert main(["limit", "--scheme", str(scheme), "--rounds", str(rounds),
                 "--out", str(outs["limit"])]) == 0
    for suffix in ("csv", "json"):
        outs[f"refine.{suffix}"] = tmp_path / f"{name}_refine.{suffix}"
        assert main(["refine", "--scheme", str(scheme), "--input", str(grid),
                     "--levels", str(levels), "--out", str(outs[f"refine.{suffix}"])]) == 0
    return {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in outs.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_files_match_golden_digests(tmp_path, name):
    assert digests(tmp_path, name) == GOLDEN[name]


def test_refine_csv_has_crlf_line_ends(tmp_path):
    digests(tmp_path, "2I_butterfly")
    lines = (tmp_path / "2I_butterfly_refine.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"idx0,idx1,re,im" and lines[-1] == b""
    assert all(b"\n" not in line for line in lines)
