"""Inputs the front end and the constructors reject, and the exit codes they get.

Exit 1 means "a condition fails", so an overflow, a real field given as a
bool or a string, and every other bad input must exit 2 instead.
"""

import io
import json

import pytest

from expsub import (
    CatalogParameterError,
    CheckError,
    EngineError,
    ExpPolySpace,
    check_generation,
    check_reproduction,
    dual4_binary,
    exp_box_spline,
    exp_bspline,
    exp_product,
    load_scheme,
    scheme_file_for_catalog,
    solve_tau,
    stepwise_tests,
)
from expsub.engine import grid_from_csv
from expsub.cli import main


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


HUGE = [3000, 0]
OVERFLOW_SCHEMES = {
    "exp_bspline": {"m": 2, "lambda": 3000},
    "dual4_binary": {"lambda": 3000},
    "butterfly": {"lambda": [HUGE, HUGE]},
    "exp_box_spline": {"n_dil": 2, "lambda": [HUGE, HUGE]},
    "sheared_convolution": {"lambda": [HUGE, HUGE], "normalized": False},
}
# dual4_binary(0.9) against {e^(-2000 x)}: the twisted points overflow in cexp
FAR_SPACE = {"pairs": [{"gamma": [0], "lambda": [[-2000, 0]]}]}


@pytest.mark.parametrize(
    "entry_id, command",
    [(e, c) for e in sorted(OVERFLOW_SCHEMES) for c in ("limit", "generation")]
    + [("far_space", c) for c in ("generation", "reproduction", "solve-tau")],
)
def test_cli_overflow_exits_2_not_1(tmp_path, capsys, entry_id, command):
    if entry_id == "far_space":
        scheme = write_json(tmp_path / "scheme.json", scheme_file_for_catalog("dual4_binary", **{"lambda": 0.9}))
        space = write_json(tmp_path / "space.json", FAR_SPACE)
    else:
        obj = {"name": entry_id, "kind": f"catalog:{entry_id}", "parameters": OVERFLOW_SCHEMES[entry_id]}
        obj["dimension"] = 1 if entry_id in ("exp_bspline", "dual4_binary") else 2
        obj["dilation"] = {"exp_bspline": [2], "dual4_binary": [2], "sheared_convolution": [2, 1, 0, 2]}.get(
            entry_id, [2, 0, 0, 2]
        )
        scheme = write_json(tmp_path / "scheme.json", obj)
        space = write_json(tmp_path / "space.json", load_scheme(scheme).space.to_json_obj())
    if command == "limit":
        argv = ["limit", "--scheme", scheme, "--rounds", "2", "--out", str(tmp_path / "limit.csv")]
    elif command == "solve-tau":
        argv = ["solve-tau", "--scheme", scheme, "--space", space]
    else:
        argv = ["check", "--scheme", scheme, "--space", space, "--mode", command, "--tau", "-0.5", "--kmax", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: overflow past the double range")


@pytest.mark.parametrize("n_fold", [2, 3])
def test_raw_exp_bspline_products_carry_no_shift(tmp_path, capsys, n_fold):
    spec = exp_bspline(2, 0.7, n_fold=n_fold)
    assert spec.tau is None and exp_bspline(2, 0.7).tau == (0.0,)
    assert check_generation(spec, spec.space, (0, 10)).verdict
    obj = scheme_file_for_catalog("exp_bspline", m=2, lam=0.7, n_fold=n_fold)
    assert "tau" not in obj
    params = json.dumps({"m": 2, "lambda": 0.7, "n_fold": n_fold})
    assert main(["catalog", "emit", "--id", "exp_bspline", "--params", params]) == 0
    assert "tau" not in json.loads(capsys.readouterr().out)
    scheme = write_json(tmp_path / "scheme.json", obj)
    space = write_json(tmp_path / "space.json", spec.space.to_json_obj())
    assert main(["check", "--scheme", scheme, "--space", space, "--kmax", "1", "--window", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: no tau given and solving failed")


BSPLINE = {"name": "b", "dimension": 1, "dilation": [2], "kind": "catalog:exp_bspline",
           "parameters": {"m": 2, "lambda": 1.0}}
EXP_SPACE = {"pairs": [{"gamma": [0], "lambda": [[1, 0]]}]}
HAT = {"name": "hat", "dimension": 1, "dilation": [2], "kind": "explicit", "tau": [0.0],
       "tail": [{"exp": [-1], "re": 0.5}, {"exp": [0], "re": 1.0}, {"exp": [1], "re": 0.5}]}
LINEAR_SPACE = {"pairs": [{"gamma": [0], "lambda": [[0, 0]]}, {"gamma": [1], "lambda": [[0, 0]]}]}


def _hat_center(**rec):
    return {**HAT, "tail": [HAT["tail"][0], {"exp": [0], **rec}, HAT["tail"][2]]}


def _grid(**rec):
    return {"level": 0, "values": [{"idx": [0], **rec}]}


@pytest.mark.parametrize(
    "scheme, space, grid, code",
    [
        ({**BSPLINE, "tau": True}, EXP_SPACE, None, 2),
        ({**BSPLINE, "tau": ["0.5"]}, EXP_SPACE, None, 2),
        ({**BSPLINE, "parameters": {**BSPLINE["parameters"], "tau": True}}, EXP_SPACE, None, 2),
        ({**BSPLINE, "parameters": {**BSPLINE["parameters"], "tau": "0.5"}}, EXP_SPACE, None, 2),
        (_hat_center(re="0.5"), LINEAR_SPACE, None, 2),
        (_hat_center(re=True), LINEAR_SPACE, None, 2),
        (_hat_center(re=1.0, im=False), LINEAR_SPACE, None, 2),
        (HAT, None, _grid(re="1.5", im=False), 2),
        (HAT, None, _grid(re=1.5, im=False), 2),
        (HAT, None, _grid(re=True), 2),
        ({**BSPLINE, "tau": 2}, EXP_SPACE, None, 1),
        ({**BSPLINE, "tau": [-0.0]}, EXP_SPACE, None, 0),
        ({**BSPLINE, "parameters": {**BSPLINE["parameters"], "n_fold": 2, "tau": 1}},
         {"pairs": [{"gamma": [g], "lambda": [[1, 0]]} for g in (0, 1)]}, None, 0),
        ({**HAT, "tau": -0.0}, LINEAR_SPACE, None, 0),
        (_hat_center(re=1, im=-0.0), LINEAR_SPACE, None, 0),
        (HAT, None, _grid(re=2, im=-0.0), 0),
        (HAT, None, _grid(re=2.5), 0),
        (_hat_center(re=1.0, im=None), LINEAR_SPACE, None, 2),
        (HAT, None, _grid(re=2.0, im=None), 2),
    ],
    ids=[
        "tau-true", "tau-string", "real-param-true", "real-param-string", "symbol-re-string", "symbol-re-true",
        "symbol-im-false", "grid-re-string-im-false", "grid-im-false", "grid-re-true",
        "tau-2-loads", "tau-minus-zero-loads", "real-param-1-loads", "scalar-tau-minus-zero-loads",
        "symbol-re-1-loads", "grid-re-2-loads", "grid-re-2.5-loads", "symbol-im-null", "grid-im-null",
    ],
)
def test_cli_real_fields_take_only_ints_and_floats(tmp_path, capsys, scheme, space, grid, code):
    scheme = write_json(tmp_path / "scheme.json", scheme)
    if grid is None:
        space = write_json(tmp_path / "space.json", space)
        argv = ["check", "--mode", "reproduction", "--kmax", "2", "--scheme", scheme, "--space", space]
    else:
        data = write_json(tmp_path / "grid.json", grid)
        argv = ["refine", "--scheme", scheme, "--input", data, "--levels", "1", "--out", str(tmp_path / "out.json")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be a real number" in err if code == 2 else err == ""


def _repeat_key(obj, key, first):
    """The JSON text of `obj` with `key` written twice where it first occurs, `first` before the value of `obj`."""
    text, at = json.dumps(obj), f'"{key}": '
    assert at in text
    return text.replace(at, f"{at}{json.dumps(first)}, {at}", 1)


@pytest.mark.parametrize(
    "target, key, first",
    [("scheme", "tau", [0.5]), ("scheme", "lambda", 0.3), ("space", "gamma", [1]), ("grid", "re", 1.5)],
    ids=["scheme-tau", "scheme-parameters-lambda", "space-pair-gamma", "grid-record-re"],
)
def test_cli_rejects_a_repeated_json_key(tmp_path, capsys, target, key, first):
    if target == "grid":
        files = {"scheme": HAT, "grid": _grid(re=2.5)}
        argv = ["refine", "--input", str(tmp_path / "grid.json"), "--levels", "1", "--out", str(tmp_path / "out.json")]
    else:
        files = {"scheme": {**BSPLINE, "tau": [0.0]}, "space": EXP_SPACE}
        argv = ["check", "--mode", "reproduction", "--kmax", "2", "--space", str(tmp_path / "space.json")]
    argv += ["--scheme", str(tmp_path / "scheme.json")]
    for name, obj in files.items():
        write_json(tmp_path / f"{name}.json", obj)
    assert main(argv) == 0
    capsys.readouterr()
    (tmp_path / f"{target}.json").write_text(_repeat_key(files[target], key, first))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: duplicate JSON key '{key}'\n"


@pytest.mark.parametrize(
    "target, obj, key",
    [
        ("scheme", {**BSPLINE, "levels": []}, "levels"),
        ("scheme", {**BSPLINE, "tail": HAT["tail"]}, "tail"),
        ("scheme", {**HAT, "parameters": {}}, "parameters"),
        ("scheme", {**BSPLINE, "tua": [0.5]}, "tua"),
        ("scheme", {**HAT, "tua": [0.5]}, "tua"),
        ("scheme", {**BSPLINE, "parameters": {**BSPLINE["parameters"], "lamda": 1.0}}, "lamda"),
        ("scheme", _hat_center(re=1.0, img=2.0), "img"),
        ("scheme", {**BSPLINE, "name": ["a"]}, "name"),
        ("space", {"pairs": [{"gamma": [0], "lambda": [[1, 0]], "lamda": [[2, 0]]}]}, "lamda"),
        ("space", {**EXP_SPACE, "pair": []}, "pair"),
        ("grid", {**_grid(re=1.0), "tua": [0.5]}, "tua"),
        ("grid", _grid(re=1.0, imag=2.0), "imag"),
    ],
    ids=[
        "catalog-levels", "catalog-tail", "explicit-parameters", "catalog-tua", "explicit-tua", "parameters-lamda",
        "symbol-img", "name-list", "space-pair-lamda", "space-pair", "grid-tua", "grid-record-imag",
    ],
)
def test_cli_rejects_a_key_no_reader_reads(tmp_path, capsys, target, obj, key):
    files = {"scheme": {**BSPLINE, "tau": [0.0]}, "space": EXP_SPACE, "grid": _grid(re=2.5)}
    if target == "grid":
        files["scheme"] = HAT
        argv = ["refine", "--input", str(tmp_path / "grid.json"), "--levels", "1", "--out", str(tmp_path / "out.json")]
    else:
        argv = ["check", "--mode", "reproduction", "--kmax", "2", "--space", str(tmp_path / "space.json")]
    argv += ["--scheme", str(tmp_path / "scheme.json")]
    for name, good in files.items():
        write_json(tmp_path / f"{name}.json", good)
    assert main(argv) == 0
    capsys.readouterr()
    write_json(tmp_path / f"{target}.json", obj)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"key {key!r}" in err


@pytest.mark.parametrize(
    "text, named",
    [("idx0,re,im\n0,1.0,2.0,99\n", "'99'"), ("idx0,re,im,junk\n0,1.0,2.0\n", "junk"),
     ("idx1,idx0,re,im\n0,0,1.0,2.0\n", "idx1,idx0")],
    ids=["row-extra-field", "header-extra-column", "header-index-order"],
)
def test_csv_grid_rejects_a_column_it_does_not_read(text, named):
    with pytest.raises(EngineError, match=named):
        grid_from_csv(io.StringIO(text))


def test_catalog_emit_rejects_a_repeated_params_key(capsys):
    params = {"m": 2, "lambda": 0.9}
    argv = ["catalog", "emit", "--id", "exp_bspline", "--params"]
    assert main([*argv, json.dumps(params)]) == 0
    assert capsys.readouterr().out == json.dumps(scheme_file_for_catalog("exp_bspline", **params), indent=2) + "\n"
    assert main([*argv, _repeat_key(params, "lambda", 0.5)]) == 2
    assert capsys.readouterr().err == "error: duplicate JSON key 'lambda'\n"


@pytest.fixture
def d4_files(tmp_path):
    scheme = write_json(tmp_path / "d4.json", scheme_file_for_catalog("dual4_binary", **{"lambda": 1.0}))
    space = write_json(tmp_path / "space.json", dual4_binary(1.0).space.to_json_obj())
    return scheme, space


@pytest.mark.parametrize(
    "extra, message",
    [
        (["check", "--kmin", "3", "--kmax", "1"], "need 0 <= kmin <= kmax"),
        (["check", "--tau", ""], "empty tau"),
        (["check", "--tau", " , "], "empty tau"),
        (["check", "--tau", "half"], "tau must be a list of reals"),
        (["limit", "--rounds", "0"], "need at least one refinement round"),
    ],
    ids=["kmin-above-kmax", "tau-empty", "tau-only-separators", "tau-not-numeric", "limit-zero-rounds"],
)
def test_cli_rejects_bad_ranges_and_options(tmp_path, capsys, d4_files, extra, message):
    scheme, space = d4_files
    argv = [extra[0], "--scheme", scheme, *extra[1:]]
    argv += ["--out", str(tmp_path / "limit.csv")] if extra[0] == "limit" else ["--space", space]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cli_catalog_emit_needs_an_id(capsys):
    assert main(["catalog", "emit"]) == 2
    assert capsys.readouterr().err == "error: emit needs --id\n"


def test_checks_reject_a_space_of_another_dimension():
    scheme = dual4_binary(1.0)
    plane = ExpPolySpace([((0, 0), (0, 0))])
    for run in (
        lambda: check_generation(scheme, plane, (0, 1)),
        lambda: check_reproduction(scheme, plane, (-0.5,), (0, 1)),
        lambda: list(stepwise_tests(scheme, plane, (-0.5,), range(2), 3)),
    ):
        with pytest.raises(CheckError, match="space dimension does not match the scheme"):
            run()


def test_solve_tau_rejects_a_negative_probe_level():
    scheme = dual4_binary(1.0)
    with pytest.raises(CheckError, match="probe level must be nonnegative"):
        solve_tau(scheme, scheme.space, k_probe=-1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: exp_product(1, [(0.5, 1)]), "arity m must be at least 2"),
        (lambda: exp_product(2, []), "need at least one factor"),
        (lambda: exp_product(2, None), r"need at least one factor .*got None"),
        (lambda: exp_product(2, [0.5]), r"factors\[0\] must be a \(lambda, n\) pair with n >= 1, got 0\.5"),
        (lambda: exp_product(2, [(0.5, 1, 3)]), r"factors\[0\] must be a \(lambda, n\) pair"),
        (lambda: exp_product(2, [(0.5, 1), (0.5, 0)]), r"factors\[1\] must be a \(lambda, n\) pair with n >= 1, got \(0\.5, 0\)"),
        (lambda: exp_box_spline(1, (0.5, 0.5)), "dilation factor must be at least 2"),
        (lambda: exp_box_spline(2, []), "lambda must have at least one entry"),
    ],
    ids=[
        "exp_product-m-1", "exp_product-no-factors", "exp_product-none", "exp_product-bare-entry",
        "exp_product-triple", "exp_product-zero-multiplicity", "exp_box_spline-n-1", "exp_box_spline-empty",
    ],
)
def test_constructors_reject_degenerate_dilations_and_products(build, message):
    with pytest.raises(CatalogParameterError, match=message):
        build()


def test_catalog_emit_reports_a_malformed_factor_with_the_factory_message(capsys):
    params = '{"m": 2, "factors": [[0.5, 1, 3]]}'
    assert main(["catalog", "emit", "--id", "exp_product", "--params", params]) == 2
    err = capsys.readouterr().err
    assert "factors[0] must be a (lambda, n) pair with n >= 1" in err
    assert "too many values" not in err


def test_an_empty_csv_grid_is_rejected():
    with pytest.raises(EngineError, match="empty CSV"):
        grid_from_csv(io.StringIO(""))
