"""Golden sha256 digests of `expsub limit`, `refine`, `check` and `solve-tau` output.

One case per geometry (M = 2, M = 3, 2I, the shear [[2,1],[0,2]] and the
sqrt3 matrix [[1,2],[-2,-1]]).  The file digests were recorded with the
row-by-row writers (`csv.writer`, `json.dump(indent=2)`, one `%` per row)
that the block writers replaced, so any change to the bytes of an output file
fails here.  The `check --report` JSON holds every record's `v`, `lhs` and
`rhs` as `repr` floats, so its digest pins the condition values bit for bit;
those digests were recorded with the per-record scalar symbol loops.
"""

import hashlib
import json
import math

import pytest

from expsub.cli import main
from expsub.files import load_scheme_obj, scheme_file_for_catalog
from expsub.symbols import ExpPolySpace

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


# name -> (kmin, kmax, stepwise window, space pairs for solve-tau or None for the
# documented space).  The butterfly case solves against the pure exponential,
# which takes the logarithm route; the others take the D a(1) / m and the
# derivative-ratio routes.
CHECK_CASES = {
    "M2_dual4_binary": (0, 3, 6, None),
    "M3_dual4_ternary": (2, 4, 6, None),
    "2I_butterfly": (0, 1, 5, [((0, 0), (0.5, 0.3))]),
    "shear_normalized": (1, 3, 4, None),
    "sqrt3_interpolatory": (0, 2, 4, None),
}

CHECK_GOLDEN = {
    "2I_butterfly": {
        "check.report": "931301c5862ffe1677535530cbf85d064e27858fdf32ddb7417ab4412e983330",
        "check.stdout": "9235f4022eb6f8813f772692e743e815d134afd05311c674d260b1668ab0f5dc",
        "solve-tau": "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101",
    },
    "M2_dual4_binary": {
        "check.report": "6270d519c0a14093dd2335766d67d39fb469d33d3dce3a66fad970af702a327b",
        "check.stdout": "0a09847610f913d67ef75c369a028915e873b633e589d831ab6a3f809fddab12",
        "solve-tau": "a3c737f0150863136ddef79341fa7d93bc73f3e3b7041d124b2ae4e22f9c4cbe",
    },
    "M3_dual4_ternary": {
        "check.report": "be9bc8eb1f08b3426af10021451643961ce9694ccdcd11e545c6d37292ec01b0",
        "check.stdout": "5c985f6a14ba3cdf5aa417d2a7b482a63218a1f3d2dae8d2ad97e236dcf4900a",
        "solve-tau": "67bf6fb1055d29751edb83be7b733b2d238b3ac5c0f444bae3912e25cd9a6fd1",
    },
    "shear_normalized": {
        "check.report": "c15963d25c85278ef0c446fde3b815f08efe52c964992a208f26c16970aa2114",
        "check.stdout": "63f13ccd09acffd31606a57eb50b09b6e31d4a00c77ecf7c36f4fb94506faf8e",
        "solve-tau": "1419fe20a2440bbad72b9a30039286f4e65587f4d69a8181ccc205f4fd10d3bc",
    },
    "sqrt3_interpolatory": {
        "check.report": "c7f428a507955c9b7ceb51823fe54b43b105339bc8a7825bea757136e79e397d",
        "check.stdout": "e23a36c251d627b3e8a46bdcc8900adbc7ae13ac9c892e8975155629d6b8d6aa",
        "solve-tau": "b50bf14dc38684723294076b3ed48aba9d7d3512408297812ea49e16a02b37b7",
    },
}


def check_digests(tmp_path, capsys, name: str) -> dict:
    entry, params, *_ = CASES[name]
    kmin, kmax, window, solve_pairs = CHECK_CASES[name]
    obj = scheme_file_for_catalog(entry, **params)
    scheme = tmp_path / f"{name}.json"
    scheme.write_text(json.dumps(obj))
    space = tmp_path / f"{name}_space.json"
    space.write_text(json.dumps(load_scheme_obj(obj).space.to_json_obj()))
    report = tmp_path / f"{name}_report.json"
    capsys.readouterr()
    assert main(["check", "--scheme", str(scheme), "--space", str(space), "--mode", "all",
          "--kmin", str(kmin), "--kmax", str(kmax), "--window", str(window),
          "--report", str(report)]) == 0
    table = capsys.readouterr().out
    if solve_pairs is not None:
        space.write_text(json.dumps(ExpPolySpace(solve_pairs).to_json_obj()))
    assert main(["solve-tau", "--scheme", str(scheme), "--space", str(space)]) == 0
    solved = capsys.readouterr().out
    return {
        "check.report": hashlib.sha256(report.read_bytes()).hexdigest(),
        "check.stdout": hashlib.sha256(table.encode()).hexdigest(),
        "solve-tau": hashlib.sha256(solved.encode()).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(CHECK_CASES))
def test_check_and_solve_tau_match_golden_digests(tmp_path, capsys, name):
    assert check_digests(tmp_path, capsys, name) == CHECK_GOLDEN[name]


def _explicit_scheme_obj() -> dict:
    """A 2I explicit-kind scheme whose levels differ in support and term count.

    Level 0 is butterfly's mask, level 1 an exponential box-spline mask (4
    taps on [0, 1]^2), level 2 butterfly's mask shifted by z^(1, 0), and the
    stationary tail butterfly's level-3 mask.  Against butterfly's space the
    check mixes passing and failing records at every level.
    """
    lam = (0.5 + 0j, 0.3 + 0j)
    fly = load_scheme_obj(scheme_file_for_catalog("butterfly", lam=lam))
    box = load_scheme_obj(scheme_file_for_catalog("exp_box_spline", n_dil=2, lam=lam))
    levels = [fly.symbol(0), box.symbol(1), fly.symbol(2).shift((1, 0))]
    return {
        "name": "explicit mixed",
        "dimension": 2,
        "dilation": [2, 0, 0, 2],
        "kind": "explicit",
        "tau": [0.0, 0.0],
        "levels": [sym.to_json_obj() for sym in levels],
        "tail": fly.symbol(3).to_json_obj(),
    }, fly.space


# name -> (scheme file object and space, check arguments, expected exit code)
EDGE_CASES = {
    "explicit_mixed_levels": (
        _explicit_scheme_obj,
        ["--mode", "all", "--kmin", "0", "--kmax", "5", "--window", "4"],
        1,
    ),
    "deep_wrong_tau": (
        lambda: (scheme_file_for_catalog("dual4_binary", lam=0.9),
                 load_scheme_obj(scheme_file_for_catalog("dual4_binary", lam=0.9)).space),
        ["--mode", "reproduction", "--tau", "0.3", "--kmin", "40", "--kmax", "62"],
        1,
    ),
}

EDGE_GOLDEN = {
    "deep_wrong_tau": {
        "check.report": "a32c97a759e8321ee8fcd0b2ab4d388107c92c6dc304956f5c9e7584ffb3f0b7",
        "check.stdout": "0b8167f126ad76a9099361a44951699fb6fd0a102daf82f850b8b64c1557f2b9",
    },
    "explicit_mixed_levels": {
        "check.report": "e31f6bbfeaab2545b2e6cdb077bb10a7e38310485208957ef8f0dee05ea6dc4e",
        "check.stdout": "831e32798400591087d2ffa95888c8c7b7e2bd4a12251c45585f1f03a71b8ccb",
    },
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_check_edge_cases_match_golden_digests(tmp_path, capsys, name):
    build, argv, code = EDGE_CASES[name]
    obj, space_obj = build()
    scheme = tmp_path / f"{name}.json"
    scheme.write_text(json.dumps(obj))
    space = tmp_path / f"{name}_space.json"
    space.write_text(json.dumps(space_obj.to_json_obj()))
    report = tmp_path / f"{name}_report.json"
    capsys.readouterr()
    assert main(["check", "--scheme", str(scheme), "--space", str(space), *argv,
                 "--report", str(report)]) == code
    got = {
        "check.report": hashlib.sha256(report.read_bytes()).hexdigest(),
        "check.stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
    }
    assert got == EDGE_GOLDEN[name]
