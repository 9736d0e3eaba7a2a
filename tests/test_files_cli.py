"""Scheme/space file formats and the command-line front end."""

import ast
import json
from pathlib import Path

import pytest

from expsub import (
    CATALOG,
    DilationMatrix,
    FileFormatError,
    SchemeSpec,
    butterfly,
    check_generation,
    check_reproduction,
    dual4_binary,
    exp_product,
    grid_from_json_obj,
    grid_to_json_obj,
    load_scheme,
    load_scheme_obj,
    load_space_obj,
    sample_exp_poly,
    scheme_file_for_catalog,
)
from expsub.cli import main


CONIC_SPACE = {
    "pairs": [
        {"gamma": [0], "lambda": [[0, 0]]},
        {"gamma": [1], "lambda": [[0, 0]]},
        {"gamma": [0], "lambda": [[1, 0]]},
        {"gamma": [0], "lambda": [[-1, 0]]},
    ]
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_scheme_file_catalog_roundtrip(tmp_path):
    obj = scheme_file_for_catalog("dual4_binary", **{"lambda": 1.0})
    assert obj["kind"] == "catalog:dual4_binary"
    assert obj["tau"] == [-0.5]
    spec = load_scheme_obj(obj)
    direct = dual4_binary(1.0)
    assert spec.symbol(3) == direct.symbol(3)
    assert spec.M == direct.M


def test_scheme_file_explicit(tmp_path):
    obj = {
        "name": "steps",
        "dimension": 1,
        "dilation": [2],
        "kind": "explicit",
        "levels": [[{"exp": [0], "re": 1.0, "im": 0.0}, {"exp": [1], "re": 1.0, "im": 0.0}]],
        "tail": [{"exp": [0], "re": 0.5, "im": 0.0}, {"exp": [1], "re": 1.0, "im": 0.0}, {"exp": [2], "re": 0.5, "im": 0.0}],
        "tau": [0.0],
    }
    spec = load_scheme_obj(obj)
    assert spec.symbol(0).coeff((1,)) == 1.0
    assert spec.symbol(9).coeff((0,)) == 0.5
    missing_tail = {k: v for k, v in obj.items() if k != "tail"}
    with pytest.raises(FileFormatError, match="tail"):
        load_scheme_obj(missing_tail)


def test_space_file_complex_pairs():
    sp = load_space_obj(
        {"pairs": [{"gamma": [0, 0], "lambda": [[0, 1], [0, -1]]}]}
    )
    assert sp.pairs == (((0, 0), (1j, -1j)),)
    with pytest.raises(FileFormatError):
        load_space_obj({"pairs": []})
    with pytest.raises(FileFormatError):
        load_space_obj({})


def test_bad_scheme_files():
    with pytest.raises(FileFormatError):
        load_scheme_obj({"kind": "catalog:nope", "dimension": 1, "dilation": [2]})
    with pytest.raises(FileFormatError):
        load_scheme_obj({"kind": "explicit", "dimension": 2, "dilation": [2, 0, 0]})
    with pytest.raises(FileFormatError):
        load_scheme_obj(
            {
                "kind": "catalog:dual4_binary",
                "dimension": 1,
                "dilation": [3],  # disagrees with the catalog construction
                "parameters": {"lambda": 1.0},
            }
        )


def test_catalog_file_builds_one_dilation_matrix(monkeypatch):
    """The file's dilation list is compared with the catalog's matrix, not built into a second one."""
    built = []
    init = DilationMatrix.__init__

    def counted(self, entries):
        built.append(entries)
        init(self, entries)

    obj = scheme_file_for_catalog("butterfly", lam=(0.5, 0.3))
    monkeypatch.setattr(DilationMatrix, "__init__", counted)
    spec = load_scheme_obj(obj)
    assert built == [[[2, 0], [0, 2]]]  # the catalog factory's
    assert spec.symbol(1) == butterfly((0.5, 0.3)).symbol(1)
    built.clear()
    load_scheme_obj({"name": "x", "dimension": 1, "dilation": [2], "kind": "explicit", "levels": [],
                     "tail": [{"exp": [0], "re": 1.0, "im": 0.0}]})
    assert built == [[[2]]]


def test_a_file_loaded_scheme_builds_each_level_once_through_one_spec(monkeypatch):
    """A catalog file's spec runs the factory's rule itself, so each level asked is one
    `symbol` call and one build; the file's `name` and `tau` override the factory's."""
    init, symbol = SchemeSpec.__init__, SchemeSpec.symbol
    specs, built, asked = [], [], []

    def counted_init(self, name, M, rule, tau=None, space=None):
        if not specs:  # the factory's spec is built first; count its rule's runs

            def rule(k, rule=rule):
                built.append(k)
                return rule(k)

        specs.append(name)
        init(self, name, M, rule, tau=tau, space=space)

    def counted_symbol(self, k):
        asked.append(k)
        return symbol(self, k)

    obj = {**scheme_file_for_catalog("dual4_binary", name="d4", **{"lambda": 1.0}), "tau": [0.25]}
    monkeypatch.setattr(SchemeSpec, "__init__", counted_init)
    monkeypatch.setattr(SchemeSpec, "symbol", counted_symbol)
    spec = load_scheme_obj(obj)
    assert specs == ["dual4_binary", "d4"]
    assert (spec.name, spec.tau) == ("d4", (0.25,))
    for _ in range(2):
        assert check_generation(spec, spec.space, (0, 4)).verdict
    assert asked == [0, 1, 2, 3, 4] * 2
    assert built == [0, 1, 2, 3, 4]
    monkeypatch.undo()

    bare = load_scheme_obj({k: v for k, v in obj.items() if k not in ("name", "tau")})
    assert (bare.name, bare.tau) == ("dual4_binary", (-0.5,))
    hat = load_scheme_obj({"dimension": 1, "dilation": [2], "kind": "explicit", "tail": [{"exp": [0], "re": 1.0}]})
    assert (hat.name, hat.tau, hat.space) == ("explicit", None, None)


@pytest.mark.parametrize("dilation", [[1, 0, 0, 1], [2, 1, 0, 2], [2, 0], [3, 0, 0, 3]])
def test_catalog_file_with_a_bad_dilation_exits_2(tmp_path, capsys, dilation):
    obj = scheme_file_for_catalog("butterfly", lam=(0.5, 0.3))
    obj["dilation"] = dilation
    scheme = write_json(tmp_path / "scheme.json", obj)
    space = write_json(tmp_path / "space.json", {"pairs": [{"gamma": [0, 0], "lambda": [[0, 0], [0, 0]]}]})
    assert main(["check", "--scheme", scheme, "--space", space, "--mode", "generation", "--kmax", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: dilation")


@pytest.mark.parametrize(
    "entry_id, params",
    [("exp_box_spline", {"n_dil": 2}), ("butterfly", {}), ("sheared_convolution", {"normalized": True})],
)
def test_frequency_tuples_are_vectors(entry_id, params):
    # A Python tuple of reals is a vector, never one complex number.
    obj = scheme_file_for_catalog(entry_id, lam=(0.5, 0.25), **params)
    assert obj["parameters"]["lambda"] == [[0.5, 0.0], [0.25, 0.0]]
    spec = load_scheme_obj(json.loads(json.dumps(obj)))
    assert obj["dimension"] == spec.M.s == 2
    assert spec.space.lambdas() == [(0.5 + 0j, 0.25 + 0j)]


def test_frequency_list_is_file_form_and_tuple_is_a_vector():
    # The same two reals: a list is one complex number, a tuple a 2-D vector.
    as_list = scheme_file_for_catalog("exp_box_spline", n_dil=2, lam=[0.5, 0.25])
    as_tuple = scheme_file_for_catalog("exp_box_spline", n_dil=2, lam=(0.5, 0.25))
    assert (as_list["dimension"], as_list["parameters"]["lambda"]) == (1, [0.5, 0.25])
    assert load_scheme_obj(as_list).space.lambdas() == [(0.5 + 0.25j,)]
    assert (as_tuple["dimension"], as_tuple["parameters"]["lambda"]) == (2, [[0.5, 0.0], [0.25, 0.0]])
    assert load_scheme_obj(as_tuple).space.lambdas() == [(0.5 + 0j, 0.25 + 0j)]


def test_factor_frequency_tuples_are_written_as_the_lambda_key_writes_them():
    # A factor's frequency may be a 1-vector, as exp_product itself reads it.
    factors = [((0.5,), 1), ((-0.5,), 1)]
    obj = scheme_file_for_catalog("exp_product", m=2, factors=factors)
    assert obj["parameters"]["factors"] == [[[[0.5, 0.0]], 1], [[[-0.5, 0.0]], 1]]
    spec = load_scheme_obj(json.loads(json.dumps(obj)))
    built = exp_product(2, factors)
    assert [spec.symbol(k) for k in range(3)] == [built.symbol(k) for k in range(3)]
    # List-form factors are file form already and come back unchanged.
    listed = [[[1, 0], 1], [[-1, 0], 1]]
    assert scheme_file_for_catalog("exp_product", m=2, factors=listed)["parameters"]["factors"] == listed


def test_frequency_bare_real_lists_other_than_pairs_are_rejected():
    obj = scheme_file_for_catalog("butterfly", lam=(0.5, 0.25))
    for bad in ([0.5, 0.25, 0.1], [0.5], []):
        with pytest.raises(FileFormatError, match="pairs"):
            load_scheme_obj({**obj, "parameters": {"lambda": bad}})
        with pytest.raises(FileFormatError, match="pairs"):
            load_space_obj({"pairs": [{"gamma": [0] * max(len(bad), 1), "lambda": bad}]})
    with pytest.raises(FileFormatError, match="pairs"):
        scheme_file_for_catalog("exp_box_spline", n_dil=2, **{"lambda": [0.5, 0.25, 0.1]})
    # Two bare reals are one complex number, in a scheme file and in a space file.
    assert (1j,) in load_scheme_obj(scheme_file_for_catalog("dual4_binary", **{"lambda": [0, 1]})).space.lambdas()
    assert load_space_obj({"pairs": [{"gamma": [0], "lambda": [0.5, 0.3]}]}).pairs == (((0,), (0.5 + 0.3j,)),)
    with pytest.raises(FileFormatError, match="inconsistent dimensions"):
        load_space_obj({"pairs": [{"gamma": [0, 0], "lambda": [0.5, 0.3]}]})


def test_cli_check_pass_fail_and_report(tmp_path, capsys):
    scheme = write_json(
        tmp_path / "scheme.json", scheme_file_for_catalog("dual4_binary", **{"lambda": 1.0})
    )
    space = write_json(tmp_path / "space.json", CONIC_SPACE)
    report = tmp_path / "report.json"

    code = main(
        [
            "check",
            "--scheme",
            scheme,
            "--space",
            space,
            "--tau",
            "-0.5",
            "--kmin",
            "0",
            "--kmax",
            "3",
            "--mode",
            "all",
            "--report",
            str(report),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    rep = json.loads(report.read_text())
    assert rep["verdict"] == "pass"
    assert {r["mode"] for r in rep["results"]} == {"generation", "reproduction", "stepwise"}

    code = main(
        ["check", "--scheme", scheme, "--space", space, "--tau", "0", "--kmin", "0", "--kmax", "1", "--mode", "reproduction"]
    )
    assert code == 1

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code = main(["check", "--scheme", str(bad), "--space", space])
    assert code == 2


def test_cli_check_report_deterministic(tmp_path):
    scheme = write_json(
        tmp_path / "scheme.json", scheme_file_for_catalog("dual4_binary", **{"lambda": 1.0})
    )
    space = write_json(tmp_path / "space.json", CONIC_SPACE)
    reports = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert (
            main(
                ["check", "--scheme", scheme, "--space", space, "--kmin", "0", "--kmax", "2", "--mode", "reproduction", "--report", str(path)]
            )
            == 0
        )
        reports.append(path.read_text())
    assert reports[0] == reports[1]


def test_cli_check_uses_scheme_tau_and_solves_when_missing(tmp_path):
    obj = scheme_file_for_catalog("dual4_ternary", **{"lambda": 1.0})
    with_tau = write_json(tmp_path / "with_tau.json", obj)
    space = write_json(tmp_path / "space.json", CONIC_SPACE)
    assert main(["check", "--scheme", with_tau, "--space", space, "--kmax", "2", "--mode", "reproduction"]) == 0
    no_tau = dict(obj)
    del no_tau["tau"]
    bare = write_json(tmp_path / "no_tau.json", no_tau)
    assert main(["check", "--scheme", bare, "--space", space, "--kmax", "2", "--mode", "reproduction"]) == 0


def test_cli_check_runs_beyond_level_64(tmp_path):
    scheme = write_json(tmp_path / "dual4.json", scheme_file_for_catalog("dual4_binary", **{"lambda": 1.0}))
    space = write_json(tmp_path / "space.json", CONIC_SPACE)
    assert main(["check", "--scheme", scheme, "--space", space, "--kmin", "60", "--kmax", "70"]) == 0


def test_cli_rejects_repeated_keys(tmp_path, capsys):
    # the repeat carries the same value, so either reading gives a valid scheme
    tail = [{"exp": [0], "re": 0.5}, {"exp": [1], "re": 1.0}, {"exp": [2], "re": 0.5}, {"exp": [1], "re": 1.0}]
    obj = {"name": "twice", "dimension": 1, "dilation": [2], "kind": "explicit", "levels": [], "tail": tail}
    scheme = write_json(tmp_path / "twice.json", obj)
    space = write_json(tmp_path / "space.json", {"pairs": [{"gamma": [0], "lambda": [[0, 0]]}]})
    assert main(["check", "--scheme", scheme, "--space", space, "--kmax", "1", "--mode", "generation"]) == 2
    assert "more than once" in capsys.readouterr().err
    good = write_json(tmp_path / "bsp.json", scheme_file_for_catalog("exp_bspline", m=2, **{"lambda": 0.0}))
    data = {"level": 0, "values": [{"idx": [0], "re": 1.0}, {"idx": [0], "re": 5.0}]}
    grid = write_json(tmp_path / "grid.json", data)
    out = str(tmp_path / "out.json")
    assert main(["refine", "--scheme", good, "--input", grid, "--levels", "1", "--out", out]) == 2
    assert "more than once" in capsys.readouterr().err


def test_cli_solve_tau_outputs(tmp_path, capsys):
    scheme = write_json(
        tmp_path / "t.json", scheme_file_for_catalog("dual4_ternary", **{"lambda": 1.0})
    )
    space = write_json(tmp_path / "space.json", CONIC_SPACE)
    assert main(["solve-tau", "--scheme", scheme, "--space", space]) == 0
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and abs(float(printed[0]) + 0.25) < 1e-10

    s3 = write_json(
        tmp_path / "s3.json", scheme_file_for_catalog("sqrt3", variant="approximating")
    )
    lin = write_json(
        tmp_path / "lin.json",
        {
            "pairs": [
                {"gamma": [0, 0], "lambda": [[0, 0], [0, 0]]},
                {"gamma": [1, 0], "lambda": [[0, 0], [0, 0]]},
                {"gamma": [0, 1], "lambda": [[0, 0], [0, 0]]},
            ]
        },
    )
    assert main(["solve-tau", "--scheme", s3, "--space", lin]) == 0
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(abs(float(x)) < 1e-10 for x in printed)

    raw = write_json(
        tmp_path / "shear.json",
        scheme_file_for_catalog("sheared_convolution", **{"lambda": [[1, 0], [0.5, 0]], "normalized": False}),
    )
    grad = write_json(
        tmp_path / "grad.json",
        {
            "pairs": [
                {"gamma": [0, 0], "lambda": [[1, 0], [0.5, 0]]},
                {"gamma": [1, 0], "lambda": [[1, 0], [0.5, 0]]},
                {"gamma": [0, 1], "lambda": [[1, 0], [0.5, 0]]},
            ]
        },
    )
    assert main(["solve-tau", "--scheme", raw, "--space", grad]) == 1


def test_cli_refine_identity_and_delta(tmp_path, capsys):
    scheme = write_json(
        tmp_path / "bsp.json",
        scheme_file_for_catalog("exp_bspline", m=2, **{"lambda": 0.0}),
    )
    delta = write_json(
        tmp_path / "delta.json",
        {"level": 0, "tau": [0.0], "values": [{"idx": [0], "re": 1.0, "im": 0.0}]},
    )
    out0 = tmp_path / "out0.json"
    assert main(["refine", "--scheme", scheme, "--input", delta, "--levels", "0", "--out", str(out0)]) == 0
    g0 = grid_from_json_obj(json.loads(out0.read_text()))
    assert g0.values == {(0,): 1.0}

    out1 = tmp_path / "out1.json"
    assert main(["refine", "--scheme", scheme, "--input", delta, "--levels", "1", "--out", str(out1)]) == 0
    g1 = grid_from_json_obj(json.loads(out1.read_text()))
    assert g1.values == {(0,): 1.0, (1,): 1.0}
    assert g1.level == 1

    outcsv = tmp_path / "out.csv"
    assert main(["refine", "--scheme", scheme, "--input", delta, "--levels", "1", "--out", str(outcsv)]) == 0
    assert outcsv.read_text().splitlines()[0] == "idx0,re,im"


def test_cli_limit_csv(tmp_path):
    scheme = write_json(
        tmp_path / "bsp.json",
        scheme_file_for_catalog("exp_bspline", m=2, **{"lambda": 1.0}),
    )
    out = tmp_path / "limit.csv"
    assert main(["limit", "--scheme", scheme, "--rounds", "12", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t0,re,im"
    import math

    target = None
    for line in lines[1:]:
        t, re, im = (float(x) for x in line.split(","))
        if abs(t - 0.5) < 1e-12:
            target = complex(re, im)
    assert target is not None
    assert abs(target - math.exp(0.5)) < 1e-3 * math.exp(0.5)


def test_cli_catalog_list_and_emit_roundtrip(tmp_path, capsys):
    assert main(["catalog", "list"]) == 0
    listing = capsys.readouterr().out
    for entry_id in (
        "exp_bspline",
        "exp_product",
        "exp_box_spline",
        "dual4_binary",
        "dual4_ternary",
        "butterfly",
        "sheared_convolution",
        "sqrt3",
    ):
        assert entry_id in listing

    assert main(["catalog", "list", "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert len(parsed) == 8

    out = tmp_path / "emitted.json"
    assert main(["catalog", "emit", "--id", "exp_bspline", "--params", '{"m": 2, "lambda": 0.0}', "--out", str(out)]) == 0
    capsys.readouterr()
    spec = load_scheme(str(out))
    assert spec.symbol(0).terms() == {(0,): 1 + 0j, (1,): 1 + 0j}

    # emitted file gives identical check results to in-process construction
    emitted = write_json(
        tmp_path / "d4.json", scheme_file_for_catalog("dual4_binary", **{"lambda": 1.0})
    )
    spec2 = load_scheme(emitted)
    direct = dual4_binary(1.0)
    r1 = check_reproduction(spec2, direct.space, (-0.5,), (0, 3))
    r2 = check_reproduction(direct, direct.space, (-0.5,), (0, 3))
    assert [r.residual for r in r1.records] == [r.residual for r in r2.records]

    assert main(["catalog", "emit", "--id", "nope"]) == 2


def test_cli_refine_dimension_mismatch(tmp_path):
    scheme = write_json(
        tmp_path / "bf.json", scheme_file_for_catalog("butterfly", **{"lambda": [[1, 0], [1, 0]]})
    )
    delta1 = write_json(
        tmp_path / "delta.json",
        {"level": 0, "tau": [0.0], "values": [{"idx": [0], "re": 1.0, "im": 0.0}]},
    )
    assert main(["refine", "--scheme", scheme, "--input", delta1, "--levels", "1", "--out", str(tmp_path / "x.json")]) == 2


def test_grid_json_matches_sampled_data(tmp_path):
    g = sample_exp_poly((0,), (1.0,), dual4_binary(1.0).M, (-0.5,), 0, (-3, 3))
    obj = grid_to_json_obj(g)
    assert obj["tau"] == [-0.5]
    back = grid_from_json_obj(obj)
    assert back.values == g.values


def test_cli_refine_exponential_interior(tmp_path):
    import cmath

    from expsub import box_indices, valid_interior
    from expsub.lattice import param_array

    scheme_path = write_json(
        tmp_path / "d4.json", scheme_file_for_catalog("dual4_binary", **{"lambda": 1.0})
    )
    direct = dual4_binary(1.0)
    data = sample_exp_poly((0,), (1.0,), direct.M, (-0.5,), 0, 10)
    data_path = write_json(tmp_path / "exp.json", grid_to_json_obj(data))
    out = tmp_path / "refined.json"
    assert main(["refine", "--scheme", scheme_path, "--input", data_path, "--levels", "3", "--out", str(out)]) == 0
    g = grid_from_json_obj(json.loads(out.read_text()))
    win = box_indices(10, 1)
    for k in range(3):
        win = valid_interior(direct.symbol(k), direct.M, win)
    pts = param_array(direct.M, (-0.5,), 3, win).tolist()
    err = max(abs(g.values[a] - cmath.exp(t[0])) for a, t in zip(win, pts))
    assert win and err < 1e-9


HAT = {
    "name": "hat",
    "dimension": 1,
    "dilation": [2],
    "kind": "explicit",
    "tail": [{"exp": [0], "re": 0.5}, {"exp": [1], "re": 1.0}, {"exp": [2], "re": 0.5}],
}


@pytest.mark.parametrize(
    "scheme_edit, space, grid",
    [
        ({"tail": [{"re": 1.0}]}, CONIC_SPACE, None),
        ({"tail": [{"exp": [0.5], "re": 1.0}]}, CONIC_SPACE, None),
        ({"levels": 5}, CONIC_SPACE, None),
        ({}, {"pairs": 5}, None),
        ({}, None, {"level": 0, "values": [{"re": 1.0}]}),
        ({}, None, [{"idx": [0], "re": 1.0}]),
    ],
    ids=[
        "tail-record-without-exp", "exp-fractional", "levels-not-a-list", "space-pairs-not-a-list",
        "grid-record-without-idx", "grid-a-list",
    ],
)
def test_cli_malformed_scheme_space_and_grid_records_exit_2(tmp_path, capsys, scheme_edit, space, grid):
    # exit 1 means "a condition fails", so a bad record must not end there
    scheme = write_json(tmp_path / "hat.json", {**HAT, **scheme_edit})
    if grid is None:
        space = write_json(tmp_path / "space.json", space)
        argv = ["check", "--mode", "generation", "--scheme", scheme, "--space", space]
    else:
        data = write_json(tmp_path / "grid.json", grid)
        argv = ["refine", "--scheme", scheme, "--input", data, "--levels", "1", "--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_check_explicit_scheme_file(tmp_path):
    # hat-scheme file written out level by level with a stationary tail
    hat = [
        {"exp": [0], "re": 0.5, "im": 0.0},
        {"exp": [1], "re": 1.0, "im": 0.0},
        {"exp": [2], "re": 0.5, "im": 0.0},
    ]
    scheme = write_json(
        tmp_path / "hat.json",
        {
            "name": "hat",
            "dimension": 1,
            "dilation": [2],
            "kind": "explicit",
            "levels": [hat, hat],
            "tail": hat,
            "tau": [1.0],
        },
    )
    space = write_json(
        tmp_path / "linear.json",
        {
            "pairs": [
                {"gamma": [0], "lambda": [[0, 0]]},
                {"gamma": [1], "lambda": [[0, 0]]},
            ]
        },
    )
    assert main(["check", "--scheme", scheme, "--space", space, "--kmax", "3", "--mode", "all"]) == 0
    assert main(["check", "--scheme", scheme, "--space", space, "--kmax", "3", "--tau", "0", "--mode", "reproduction"]) == 1


def test_cli_solve_tau_explicit_hat(tmp_path, capsys):
    # the hat mask (1+z)^2/2 admits the shift parameter 1
    hat = [
        {"exp": [0], "re": 0.5, "im": 0.0},
        {"exp": [1], "re": 1.0, "im": 0.0},
        {"exp": [2], "re": 0.5, "im": 0.0},
    ]
    scheme = write_json(
        tmp_path / "hat.json",
        {"name": "hat", "dimension": 1, "dilation": [2], "kind": "explicit", "levels": [], "tail": hat},
    )
    space = write_json(
        tmp_path / "linear.json",
        {"pairs": [{"gamma": [0], "lambda": [[0, 0]]}, {"gamma": [1], "lambda": [[0, 0]]}]},
    )
    assert main(["solve-tau", "--scheme", scheme, "--space", space]) == 0
    assert abs(float(capsys.readouterr().out.strip()) - 1.0) < 1e-12


def test_cli_stepwise_rejects_nan_tail(tmp_path, capsys):
    # Python's json reads NaN; an all-NaN mask must not pass with max err 0
    nan_hat = [{"exp": [e], "re": float("nan"), "im": 0.0} for e in range(3)]
    scheme = write_json(
        tmp_path / "nan.json",
        {"name": "nan", "dimension": 1, "dilation": [2], "kind": "explicit", "levels": [], "tail": nan_hat, "tau": [1.0]},
    )
    space = write_json(
        tmp_path / "linear.json",
        {"pairs": [{"gamma": [0], "lambda": [[0, 0]]}, {"gamma": [1], "lambda": [[0, 0]]}]},
    )
    assert main(["check", "--scheme", scheme, "--space", space, "--kmax", "2", "--mode", "stepwise"]) != 0
    assert "finite" in capsys.readouterr().err
    for lam in ([[float("inf"), 0]], [0, float("inf")], float("nan")):
        with pytest.raises(FileFormatError, match="finite"):
            load_space_obj({"pairs": [{"gamma": [0], "lambda": lam}]})


# file-form parameters for every catalog entry; exp_product factors are pairs
FILE_PARAMS = {
    "exp_bspline": {"m": 2, "lambda": [1, 0], "n_fold": 2, "tau": 1.0},
    "exp_product": {"m": 2, "factors": [[[1, 0], 1], [[-1, 0], 1]], "normalization": "two_factor"},
    "exp_box_spline": {"n_dil": 2, "lambda": [[0.5, 0], [-0.25, 0]]},
    "dual4_binary": {"lambda": [0, 1]},
    "dual4_ternary": {"lambda": 0.8},
    "butterfly": {"lambda": [[1, 0], [0.5, 0]]},
    "sheared_convolution": {"lambda": [[1, 0], [0.5, 0]], "normalized": True},
    "sqrt3": {"variant": "interpolatory"},
}


@pytest.mark.parametrize("entry_id", sorted(FILE_PARAMS))
def test_catalog_emit_and_writer_agree(entry_id, capsys):
    from expsub import CATALOG

    assert set(FILE_PARAMS) == set(CATALOG)
    params = FILE_PARAMS[entry_id]
    assert main(["catalog", "emit", "--id", entry_id, "--params", json.dumps(params)]) == 0
    emitted = json.loads(capsys.readouterr().out)
    written = scheme_file_for_catalog(entry_id, **params)
    assert emitted == json.loads(json.dumps(written))
    assert emitted["parameters"] == params
    assert load_scheme_obj(emitted).symbol(2) == load_scheme_obj(written).symbol(2)
    for extra in ({"name": "x"}, {"entry_id": "x"}, {"unknown": 1}):
        assert main(["catalog", "emit", "--id", entry_id, "--params", json.dumps({**params, **extra})]) == 2


def test_scheme_spec_is_immutable_and_file_name_is_kept():
    spec = dual4_binary(1.0)
    with pytest.raises(AttributeError):
        spec.tau = "garbage"
    with pytest.raises(AttributeError):
        spec.name = "other"
    obj = scheme_file_for_catalog("dual4_binary", name="mine", **{"lambda": 1.0})
    loaded = load_scheme_obj(obj)
    assert loaded.name == "mine" and loaded.tau == (-0.5,)
    assert loaded.symbol(3) == spec.symbol(3) and loaded.symbol(3) is loaded.symbol(3)
    retimed = load_scheme_obj({**obj, "tau": [0.25]})
    assert retimed.name == "mine" and retimed.tau == (0.25,)


def test_cli_bad_tolerance_and_missing_file_exit_2(tmp_path, capsys):
    scheme = write_json(tmp_path / "d4.json", scheme_file_for_catalog("dual4_binary", **{"lambda": 1.0}))
    space = write_json(tmp_path / "space.json", CONIC_SPACE)
    argv = ["check", "--scheme", scheme, "--space", space, "--kmax", "1", "--window", "3"]
    for mode in ("generation", "reproduction", "stepwise"):
        for tol in ("nan", "-1", "inf"):
            assert main(argv + ["--mode", mode, f"--tol={tol}"]) == 2
            assert "tolerance must be finite and nonnegative" in capsys.readouterr().err
    assert main(["solve-tau", "--scheme", scheme, "--space", space, "--tol", "nan"]) == 2
    # tol = 0 is a tolerance like any other: rounding at 8e-17 fails the check
    assert main(argv + ["--mode", "generation", "--tol", "0"]) == 1
    assert main(["check", "--scheme", str(tmp_path / "missing.json"), "--space", space]) == 2


def test_cli_check_passes_a_large_dual4_mask(tmp_path, capsys):
    # ||a^[0]||_1 is 7.3e3; the check passes and is not reported as a fault
    scheme = write_json(tmp_path / "d4.json", scheme_file_for_catalog("dual4_binary", **{"lambda": [0, 3.1414]}))
    space = write_json(tmp_path / "space.json", dual4_binary(3.1414j).space.to_json_obj())
    argv = ["check", "--scheme", scheme, "--space", space, "--mode", "reproduction", "--kmin", "0", "--kmax", "3"]
    assert main(argv) == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_cli_parser_is_reused_across_subcommands(tmp_path, capsys):
    from expsub import cli

    assert cli._parser() is cli._parser()
    scheme = write_json(tmp_path / "d4.json", scheme_file_for_catalog("dual4_ternary", **{"lambda": 1.0}))
    space = write_json(tmp_path / "space.json", CONIC_SPACE)
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert main(["limit", "--scheme", scheme, "--rounds", "2", "--start-level", "3", "--out", str(first)]) == 0
    assert main(["solve-tau", "--scheme", scheme, "--space", space, "--kprobe", "1"]) == 0
    assert abs(float(capsys.readouterr().out.split()[-1]) + 0.25) < 1e-10
    # the second limit call gets the default start level, not the first call's 3
    assert main(["limit", "--scheme", scheme, "--rounds", "2", "--out", str(again)]) == 0
    level0 = cli.build_parser().parse_args(["limit", "--scheme", scheme, "--rounds", "2", "--out", "x"])
    assert level0.start_level == 0
    assert first.read_text() != again.read_text()
    assert main(["catalog", "list"]) == 0
    assert "dual4_ternary:" in capsys.readouterr().out


def test_cli_check_builds_json_records_only_for_a_report(tmp_path, monkeypatch):
    from expsub import ConditionRecord, ConditionReport

    scheme = write_json(tmp_path / "d4.json", scheme_file_for_catalog("dual4_binary", **{"lambda": 1.0}))
    space = write_json(tmp_path / "space.json", CONIC_SPACE)
    argv = ["check", "--scheme", scheme, "--space", space, "--kmax", "1", "--window", "3"]
    calls = []
    for cls in (ConditionRecord, ConditionReport):
        original = cls.to_json_obj
        monkeypatch.setattr(cls, "to_json_obj", lambda self, f=original: calls.append(1) or f(self))
    assert main(argv) == 0
    assert calls == []
    report = tmp_path / "report.json"
    assert main(argv + ["--report", str(report)]) == 0
    assert calls and json.loads(report.read_text())["verdict"] == "pass"
    # a failing check still exits 1 without a report
    assert main(argv[:-4] + ["--tau", "0", "--mode", "reproduction"]) == 1


BSPLINE = {"name": "b", "dimension": 1, "dilation": [2], "kind": "catalog:exp_bspline", "parameters": {"m": 2, "lambda": 1.0}}
EXP_SPACE = {"pairs": [{"gamma": [0], "lambda": [[1, 0]]}]}
LINEAR_SPACE = {"pairs": [{"gamma": [0], "lambda": [[0, 0]]}, {"gamma": [1], "lambda": [[0, 0]]}]}
SHEAR = {"name": "shear", "dimension": 2, "dilation": [2, 1, 0, 2], "kind": "catalog:sheared_convolution",
         "parameters": {"lambda": [[0.5, 0], [0.3, 0]], "normalized": False}}
SHEAR_SPACE = {"pairs": [{"gamma": [0, 0], "lambda": [[0.5, 0], [0.3, 0]]}]}
DELTA = {"level": 0, "values": [{"idx": [0], "re": 1.0}]}


@pytest.mark.parametrize(
    "scheme, space, grid, code",
    [
        ({**BSPLINE, "dilation": [2.5]}, EXP_SPACE, None, 2),
        ({**BSPLINE, "dimension": 1.9}, EXP_SPACE, None, 2),
        ({**BSPLINE, "dimension": True}, EXP_SPACE, None, 2),
        ({**BSPLINE, "parameters": {"m": 2.7, "lambda": 1.0}}, EXP_SPACE, None, 2),
        ({**BSPLINE, "parameters": {"m": 2, "lambda": True}}, EXP_SPACE, None, 2),
        ({**SHEAR, "parameters": {**SHEAR["parameters"], "normalized": "false"}}, SHEAR_SPACE, None, 2),
        ({**HAT, "tau": [1.0], "tail": [*HAT["tail"][:2], {"exp": [2.5], "re": 0.5}]}, LINEAR_SPACE, None, 2),
        (BSPLINE, {"pairs": [{"gamma": [1.7], "lambda": [[1, 0]]}]}, None, 2),
        (HAT, None, {"level": 0, "values": [{"idx": [0.6], "re": 1.0}]}, 2),
        (HAT, None, {**DELTA, "level": 1.5}, 2),
        ({**BSPLINE, "dimension": 1.0, "dilation": [2.0], "parameters": {"m": 2.0, "lambda": 1.0}},
         {"pairs": [{"gamma": [0.0], "lambda": [[1, 0]]}]}, None, 0),
        ({**HAT, "tail": [{"exp": [0.0], "re": 0.5}, {"exp": [1.0], "re": 1.0}, {"exp": [2.0], "re": 0.5}]},
         None, {"level": 0.0, "values": [{"idx": [0.0], "re": 1.0}]}, 0),
    ],
    ids=[
        "dilation-2.5", "dimension-1.9", "dimension-true", "m-2.7", "lambda-true", "normalized-string",
        "exp-2.5", "gamma-1.7", "idx-0.6", "level-1.5", "integral-floats-load", "integral-float-grid-loads",
    ],
)
def test_cli_non_integers_and_booleans_are_rejected_not_truncated(tmp_path, capsys, scheme, space, grid, code):
    scheme = write_json(tmp_path / "scheme.json", scheme)
    if grid is None:
        space = write_json(tmp_path / "space.json", space)
        argv = ["check", "--mode", "reproduction", "--kmax", "2", "--scheme", scheme, "--space", space]
    else:
        data = write_json(tmp_path / "grid.json", grid)
        argv = ["refine", "--scheme", scheme, "--input", data, "--levels", "1", "--out", str(tmp_path / "out.json")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") if code else err == ""


def explicit_dual4(tmp_path):
    """dual4_binary(1.0) levels 0 and 1 written out with a tail and no tau."""
    a = dual4_binary(1.0)
    obj = {"name": "dual4_levels", "dimension": 1, "dilation": [2], "kind": "explicit",
           "levels": [a.symbol(0).to_json_obj(), a.symbol(1).to_json_obj()], "tail": a.symbol(2).to_json_obj()}
    return write_json(tmp_path / "explicit.json", obj)


def test_cli_check_solves_tau_for_an_explicit_scheme_without_one(tmp_path, capsys):
    from expsub import load_space, solve_tau

    scheme = explicit_dual4(tmp_path)
    space = write_json(tmp_path / "space.json", CONIC_SPACE)
    tau = solve_tau(load_scheme(scheme), load_space(space), k_probe=0)
    assert abs(tau[0] + 0.5) < 1e-12
    report = tmp_path / "report.json"
    assert main(["check", "--scheme", scheme, "--space", space, "--kmax", "1", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert f"reproduction check for dual4_levels, tau={tau}" in out
    assert f"stepwise check for dual4_levels at level 1, tau={tau}" in out
    assert json.loads(report.read_text())["tau"] == list(tau)


def test_cli_check_without_tau_exits_2_when_solving_fails(tmp_path, capsys):
    scheme = explicit_dual4(tmp_path)
    space = write_json(tmp_path / "space.json", {"pairs": [{"gamma": [0], "lambda": [[0, 0]]}]})
    assert main(["check", "--scheme", scheme, "--space", space, "--kmax", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: no tau given and solving failed")


# Each catalog entry's parameters without a default, by file key; sqrt3's one parameter has one.
REQUIRED = {
    "exp_bspline": {"m": 2, "lambda": 1.0},
    "exp_product": {"m": 2, "factors": [[0.5, 1], [-0.5, 1]]},
    "exp_box_spline": {"n_dil": 2, "lambda": [[0.5, 0], [0.25, 0]]},
    "dual4_binary": {"lambda": 1.0},
    "dual4_ternary": {"lambda": 1.0},
    "butterfly": {"lambda": [[0.5, 0], [0.25, 0]]},
    "sheared_convolution": {"lambda": [[0.5, 0], [0.25, 0]]},
}


@pytest.mark.parametrize("entry_id, key", [(e, k) for e, params in REQUIRED.items() for k in params])
def test_a_missing_catalog_parameter_exits_2_naming_its_file_key(tmp_path, capsys, entry_id, key):
    assert set(REQUIRED) | {"sqrt3"} == set(CATALOG)
    obj = scheme_file_for_catalog(entry_id, **REQUIRED[entry_id])
    del obj["parameters"][key]
    scheme = write_json(tmp_path / "scheme.json", obj)
    assert main(["limit", "--scheme", scheme, "--rounds", "1", "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad parameters for {entry_id}: missing {key!r}\n"
    params = json.dumps({k: v for k, v in REQUIRED[entry_id].items() if k != key})
    assert main(["catalog", "emit", "--id", entry_id, "--params", params]) == 2
    assert capsys.readouterr().err == err


# Python values and file-form values of `lambda` and `factors`, signed zeros among them, with
# the parameters and dimension scheme files store for them.
FILE_FORMS = [
    ("dual4_binary", {"lam": 0.9}, '{"lambda": 0.9}', 1),
    ("dual4_binary", {"lam": 1 + 0j}, '{"lambda": [1.0, 0.0]}', 1),
    ("dual4_binary", {"lam": complex(-0.0, 0.5)}, '{"lambda": [-0.0, 0.5]}', 1),
    ("dual4_binary", {"lambda": [-0.0, 1.0]}, '{"lambda": [-0.0, 1.0]}', 1),
    ("dual4_ternary", {"lam": complex(0.0, -0.5)}, '{"lambda": [0.0, -0.5]}', 1),
    ("exp_bspline", {"m": 3, "lam": complex(-0.7, -0.0)}, '{"m": 3, "lambda": [-0.7, -0.0]}', 1),
    ("exp_bspline", {"m": 2, "lam": -0.0, "n_fold": 2, "tau": 1.0},
     '{"m": 2, "lambda": -0.0, "n_fold": 2, "tau": 1.0}', 1),
    ("exp_box_spline", {"n_dil": 2, "lam": (0.5, -0.0)}, '{"n_dil": 2, "lambda": [[0.5, 0.0], [-0.0, 0.0]]}', 2),
    ("exp_box_spline", {"n_dil": 2, "lam": [0.5, 0.25]}, '{"n_dil": 2, "lambda": [0.5, 0.25]}', 1),
    ("exp_box_spline", {"n_dil": 2, "lambda": [[0.5, 0], [0.25, -0.0]]},
     '{"n_dil": 2, "lambda": [[0.5, 0], [0.25, -0.0]]}', 2),
    ("butterfly", {"lam": (1 + 0j, 1 + 0j)}, '{"lambda": [[1.0, 0.0], [1.0, 0.0]]}', 2),
    ("butterfly", {"lam": (0.5j, complex(-0.0, -0.25))}, '{"lambda": [[0.0, 0.5], [-0.0, -0.25]]}', 2),
    ("sheared_convolution", {"lam": (0.5, 0.25), "normalized": True},
     '{"lambda": [[0.5, 0.0], [0.25, 0.0]], "normalized": true}', 2),
    ("exp_product", {"m": 2, "factors": [((0.5,), 1), ((-0.5,), 1)]},
     '{"m": 2, "factors": [[[[0.5, 0.0]], 1], [[[-0.5, 0.0]], 1]]}', 1),
    ("exp_product", {"m": 2, "factors": ((0.5, 1), (complex(-0.5, -0.0), 1))},
     '{"m": 2, "factors": [[0.5, 1], [[-0.5, -0.0], 1]]}', 1),
    ("exp_product", {"m": 3, "factors": [[[1, 0], 2], [[-1, -0.0], 2]], "normalization": "two_factor"},
     '{"m": 3, "factors": [[[1, 0], 2], [[-1, -0.0], 2]], "normalization": "two_factor"}', 1),
    ("exp_product", {"m": 2, "factors": [[complex(-0.0, 0.5), 1], [[[0.25, 0]], 1]]},
     '{"m": 2, "factors": [[[-0.0, 0.5], 1], [[[0.25, 0]], 1]]}', 1),
    ("sqrt3", {"variant": "interpolatory"}, '{"variant": "interpolatory"}', 2),
]


@pytest.mark.parametrize("entry_id, params, text, s", FILE_FORMS)
def test_catalog_parameters_are_written_in_their_file_form(entry_id, params, text, s):
    obj = scheme_file_for_catalog(entry_id, **params)
    assert (json.dumps(obj["parameters"]), obj["dimension"]) == (text, s)
    # the file form written back reads as the same scheme
    again = scheme_file_for_catalog(entry_id, **json.loads(text))
    assert json.dumps(again) == json.dumps(obj)


def test_space_file_messages_name_the_key():
    with pytest.raises(FileFormatError) as exc:
        load_space_obj({"pairs": None})
    assert str(exc.value) == "bad space file: 'pairs' must be a list, got None"
    with pytest.raises(FileFormatError) as exc:
        load_space_obj({"pairs": [{"gamma": [0]}]})
    assert str(exc.value) == "bad space file: lambda must be a real number, got None"


def test_no_handler_in_the_package_catches_key_or_type_errors():
    # a KeyError or TypeError in the package is an internal error, never reported as bad input
    src = Path(__file__).resolve().parents[1] / "src" / "expsub"
    caught = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                caught += [(path.name, node.lineno, name) for name in names & {"KeyError", "TypeError"}]
    assert caught == []
