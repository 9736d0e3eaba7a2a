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
from .lattice import DilationMatrix, as_dimension, as_int
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


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def complex_from_pair(obj) -> complex:
    if _is_real(obj):
        z = complex(obj)
    elif isinstance(obj, (list, tuple)) and len(obj) == 2 and all(map(_is_real, obj)):
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
    """A frequency: a bare real, an [re, im] pair, or a list of pairs (a vector).

    A list of bare reals other than a pair is rejected: it could be a vector.
    """
    if _is_real(obj):
        return complex_from_pair(obj)
    if isinstance(obj, list):
        if not all(map(_is_real, obj)):
            return tuple(complex_from_pair(x) for x in obj)
        if len(obj) == 2:
            return complex_from_pair(obj)
    raise FileFormatError(f"cannot decode frequency {obj!r}; write a vector as [re, im] pairs")


def _file_form(value, kind: str = ""):
    """A parameter value of the declared `kind` as scheme files store it.

    Complex numbers, alone or inside lists and tuples, become [re, im]
    pairs, and so does each number of a `frequency` tuple (a vector).
    File-form values, bare reals and lists among them, come back unchanged.
    """
    if isinstance(value, complex):
        return pair_from_complex(value)
    if isinstance(value, (list, tuple)):
        vector = kind == "frequency" and isinstance(value, tuple)
        return [pair_from_complex(v) if vector else _file_form(v) for v in value]
    return value


# The parameter kinds of CatalogEntry.parameters whose file form differs from the
# factory's argument; every other value is passed as the file gives it.
_DECODE = {
    "frequency": _decode_lambda,
    "factors": lambda fs: [(_decode_lambda(l), n) for l, n in fs],
}


def _catalog_entry(entry_id: str):
    if entry_id not in CATALOG:
        raise FileFormatError(f"unknown catalog id {entry_id!r}")
    return CATALOG[entry_id]


def _catalog_spec(entry, parameters) -> SchemeSpec:
    """Decode scheme-file parameters by their declared kinds and build the scheme.

    A null value is passed as None; the file key "lambda" is the factory's
    `lam`, because `lambda` is reserved in Python.  The factory checks each value.
    """
    params = parameters or {}
    if not isinstance(params, dict):
        raise FileFormatError(f"parameters for {entry.id} must be an object")
    unused = sorted(set(params) - set(entry.parameters))
    if unused:
        raise FileFormatError(f"unused parameters for {entry.id}: {unused}")
    kwargs = {}
    try:
        for key, value in params.items():
            decode = _DECODE.get(entry.parameters[key][0])
            kwargs["lam" if key == "lambda" else key] = decode(value) if decode and value is not None else value
        return entry.factory(**kwargs)
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad parameters for {entry.id}: {exc}") from exc


def scheme_file_for_catalog(entry_id: str, /, name: str | None = None, **params) -> dict:
    """SchemeFile JSON object naming a catalog entry with its parameters.

    Parameters may be Python values (`lam=1 + 0j`, `lam=(0.5, 0.3)`) or
    file-form values (`**{"lambda": [1, 0]}`).  A tuple is a Python value and
    a list is file form, so `lam=(0.5, 0.25)` is the 2-D frequency while
    `lam=[0.5, 0.25]` is the one complex number 0.5+0.25i (a 1-D scheme), as
    `catalog emit --params` reads it.  The object is loaded back before it is
    returned, so a file written from it always loads.
    """
    entry = _catalog_entry(entry_id)
    parameters = {}
    for key, value in params.items():
        key = "lambda" if key == "lam" else key
        parameters[key] = _file_form(value, entry.parameters.get(key, ("",))[0])
    spec = _catalog_spec(entry, parameters)
    obj = {
        "name": name or spec.name,
        "dimension": spec.M.s,
        "dilation": [x for row in spec.M.mat for x in row],
        "kind": f"catalog:{entry_id}",
        "parameters": parameters,
    }
    if spec.tau is not None:
        obj["tau"] = list(spec.tau)
    load_scheme_obj(obj)
    return obj


def load_scheme_obj(obj: dict) -> SchemeSpec:
    try:
        kind = obj["kind"]
        s = as_dimension(obj["dimension"])
        flat = [as_int(x, "dilation entry") for x in obj["dilation"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad scheme file: {exc}") from exc
    if len(flat) != s * s:
        raise FileFormatError("dilation list length must be dimension squared")

    if isinstance(kind, str) and kind.startswith("catalog:"):
        spec = _catalog_spec(_catalog_entry(kind.split(":", 1)[1]), obj.get("parameters", {}))
        if flat != [x for row in spec.M.mat for x in row]:
            raise FileFormatError("dilation in file disagrees with the catalog entry")
        tau = obj.get("tau", None)
        return SchemeSpec(
            str(obj.get("name", spec.name)),
            spec.M,
            spec.symbol,
            tau=spec.tau if tau is None else tau,
            space=spec.space,
        )

    M = DilationMatrix([flat[i * s : (i + 1) * s] for i in range(s)])
    if kind == "explicit":
        if "tail" not in obj:
            raise FileFormatError("explicit scheme needs a stationary tail symbol")
        try:
            levels = [LaurentSymbol.from_json_obj(lv, s) for lv in obj.get("levels", [])]
            tail = LaurentSymbol.from_json_obj(obj["tail"], s)
        except (KeyError, TypeError) as exc:
            raise FileFormatError(f"bad explicit scheme symbol: {exc!r}") from exc
        for sym in levels + [tail]:
            if not all(cmath.isfinite(c) for c in sym.terms().values()):
                raise FileFormatError("explicit scheme coefficients must be finite")
        return SchemeSpec.from_levels(
            str(obj.get("name", "explicit")), M, levels, tail, tau=obj.get("tau")
        )

    raise FileFormatError(f"unknown scheme kind {kind!r}")


def _read_json(path):
    with open(Path(path), "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"invalid JSON in {path}: {exc}") from exc


def load_scheme(path) -> SchemeSpec:
    return load_scheme_obj(_read_json(path))


def load_space_obj(obj: dict) -> ExpPolySpace:
    try:
        pairs = list(obj["pairs"])
    except (KeyError, TypeError) as exc:
        raise FileFormatError("space file needs a 'pairs' list") from exc
    decoded = []
    for rec in pairs:
        try:
            gamma = tuple(as_int(x, "gamma entry") for x in rec["gamma"])
            lam = tuple(complex_from_pair(x) for x in rec["lambda"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"bad space pair {rec!r}: {exc}") from exc
        decoded.append((gamma, lam))
    if not decoded:
        raise FileFormatError("space file has no pairs")
    return ExpPolySpace(decoded)


def load_space(path) -> ExpPolySpace:
    return load_space_obj(_read_json(path))
