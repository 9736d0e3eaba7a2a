"""On-disk scheme and space descriptions.

Scheme files name either a catalog entry with its parameters or an explicit
per-level coefficient list with a stationary tail.  Complex numbers are
always stored as [re, im] pairs; floats round-trip losslessly.
"""

from __future__ import annotations

import cmath
import json
from pathlib import Path

from .catalog import CATALOG
from .lattice import DilationMatrix
from .symbols import ExpPolySpace, LaurentSymbol, SchemeSpec

__all__ = [
    "FileFormatError",
    "load_scheme",
    "load_scheme_obj",
    "scheme_file_for_catalog",
    "load_space",
    "load_space_obj",
    "complex_from_pair",
    "pair_from_complex",
]


class FileFormatError(ValueError):
    """Malformed scheme, space, or data file."""


def complex_from_pair(obj) -> complex:
    if isinstance(obj, (int, float)):
        z = complex(obj)
    elif isinstance(obj, (list, tuple)) and len(obj) == 2 and all(
        isinstance(x, (int, float)) for x in obj
    ):
        z = complex(float(obj[0]), float(obj[1]))
    else:
        raise FileFormatError(f"expected a real number or an [re, im] pair, got {obj!r}")
    if not cmath.isfinite(z):
        raise FileFormatError(f"number {obj!r} is not finite")
    return z


def pair_from_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _decode_lambda(obj):
    """A frequency: [re, im], a bare real, or a list of those (vector)."""
    if isinstance(obj, (int, float)):
        return complex_from_pair(obj)
    if isinstance(obj, list):
        if len(obj) == 2 and all(isinstance(x, (int, float)) for x in obj):
            return complex_from_pair(obj)
        return tuple(complex_from_pair(x) for x in obj)
    raise FileFormatError(f"cannot decode frequency {obj!r}")


def _catalog_kwargs(entry_id: str, params: dict) -> dict:
    p = dict(params or {})
    out = {}
    if entry_id == "exp_bspline":
        out["m"] = int(p.pop("m"))
        out["lam"] = _decode_lambda(p.pop("lambda"))
        if "n_fold" in p:
            out["n_fold"] = int(p.pop("n_fold"))
        if "tau" in p:
            t = p.pop("tau")
            out["tau"] = None if t is None else float(t)
    elif entry_id == "exp_product":
        out["m"] = int(p.pop("m"))
        out["factors"] = [
            (_decode_lambda(l), int(n)) for l, n in p.pop("factors")
        ]
        if "normalization" in p:
            out["normalization"] = p.pop("normalization")
    elif entry_id == "exp_box_spline":
        out["n_dil"] = int(p.pop("n_dil"))
        out["lam"] = _decode_lambda(p.pop("lambda"))
    elif entry_id in ("dual4_binary", "dual4_ternary", "butterfly"):
        out["lam"] = _decode_lambda(p.pop("lambda"))
    elif entry_id == "sheared_convolution":
        out["lam"] = _decode_lambda(p.pop("lambda"))
        if "normalized" in p:
            out["normalized"] = bool(p.pop("normalized"))
    elif entry_id == "sqrt3":
        if "variant" in p:
            out["variant"] = str(p.pop("variant"))
    else:
        raise FileFormatError(f"unknown catalog id {entry_id!r}")
    if p:
        raise FileFormatError(f"unused parameters for {entry_id}: {sorted(p)}")
    return out


def _encode_params(entry_id: str, params: dict) -> dict:
    """JSON-safe rendering of factory parameters (complex -> [re, im])."""
    out = {}
    for key, value in params.items():
        name = {"lam": "lambda"}.get(key, key)
        if isinstance(value, complex):
            out[name] = pair_from_complex(value)
        elif isinstance(value, tuple) and all(isinstance(z, complex) for z in value):
            out[name] = [pair_from_complex(z) for z in value]
        elif key == "factors":
            out[name] = [[pair_from_complex(complex(l)), int(n)] for l, n in value]
        else:
            out[name] = value
    return out


def scheme_file_for_catalog(entry_id: str, name: str | None = None, **params) -> dict:
    """SchemeFile JSON object naming a catalog entry with its parameters."""
    if entry_id not in CATALOG:
        raise FileFormatError(f"unknown catalog id {entry_id!r}")
    spec = CATALOG[entry_id].factory(**_catalog_kwargs(entry_id, _encode_params(entry_id, params)))
    obj = {
        "name": name or spec.name,
        "dimension": spec.M.s,
        "dilation": [x for row in spec.M.mat for x in row],
        "kind": f"catalog:{entry_id}",
        "parameters": _encode_params(entry_id, params),
    }
    if spec.tau is not None:
        obj["tau"] = list(spec.tau)
    return obj


def load_scheme_obj(obj: dict) -> SchemeSpec:
    try:
        kind = obj["kind"]
        s = int(obj["dimension"])
        flat = [int(x) for x in obj["dilation"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad scheme file: {exc}") from exc
    if len(flat) != s * s:
        raise FileFormatError("dilation list length must be dimension squared")
    M = DilationMatrix([flat[i * s : (i + 1) * s] for i in range(s)])

    if isinstance(kind, str) and kind.startswith("catalog:"):
        entry_id = kind.split(":", 1)[1]
        if entry_id not in CATALOG:
            raise FileFormatError(f"unknown catalog id {entry_id!r}")
        try:
            spec = CATALOG[entry_id].factory(**_catalog_kwargs(entry_id, obj.get("parameters", {})))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, FileFormatError):
                raise
            raise FileFormatError(f"bad parameters for {entry_id}: {exc}") from exc
        if spec.M != M:
            raise FileFormatError("dilation in file disagrees with the catalog entry")
        tau = obj.get("tau", None)
        if tau is not None:
            spec = spec.with_tau(tau)
        if "name" in obj:
            spec.name = str(obj["name"])
        return spec

    if kind == "explicit":
        levels_obj = obj.get("levels", [])
        if "tail" not in obj:
            raise FileFormatError("explicit scheme needs a stationary tail symbol")
        levels = [LaurentSymbol.from_json_obj(lv, s) for lv in levels_obj]
        tail = LaurentSymbol.from_json_obj(obj["tail"], s)
        for sym in levels + [tail]:
            if not all(cmath.isfinite(c) for c in sym.terms().values()):
                raise FileFormatError("explicit scheme coefficients must be finite")
        return SchemeSpec.from_levels(
            str(obj.get("name", "explicit")), M, levels, tail, tau=obj.get("tau")
        )

    raise FileFormatError(f"unknown scheme kind {kind!r}")


def load_scheme(path) -> SchemeSpec:
    with open(Path(path), "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"invalid JSON in {path}: {exc}") from exc
    return load_scheme_obj(obj)


def load_space_obj(obj: dict) -> ExpPolySpace:
    try:
        pairs = obj["pairs"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError("space file needs a 'pairs' list") from exc
    decoded = []
    for rec in pairs:
        try:
            gamma = tuple(int(x) for x in rec["gamma"])
            lam = tuple(complex_from_pair(x) for x in rec["lambda"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"bad space pair {rec!r}: {exc}") from exc
        decoded.append((gamma, lam))
    if not decoded:
        raise FileFormatError("space file has no pairs")
    return ExpPolySpace(decoded)


def load_space(path) -> ExpPolySpace:
    with open(Path(path), "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"invalid JSON in {path}: {exc}") from exc
    return load_space_obj(obj)
