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
from .lattice import DilationMatrix, as_complex_vector, as_dimension, as_int, as_real, as_record
from .symbols import ExpPolySpace, LaurentSymbol, SchemeSpec

__all__ = [
    "FileFormatError",
    "load_scheme",
    "load_scheme_obj",
    "scheme_file_for_catalog",
    "load_space",
    "load_space_obj",
]


class FileFormatError(ValueError):
    """Malformed scheme, space, or data file."""


def _complex(obj) -> complex:
    """A bare real or an [re, im] pair, each part read by `as_real`."""
    if isinstance(obj, list) and len(obj) == 2:
        return complex(as_real(obj[0], "real part"), as_real(obj[1], "imaginary part"))
    return complex(as_real(obj, "frequency entry"))


def _decode_lambda(obj):
    """A frequency: a bare real, an [re, im] pair, or a list of pairs (a vector).

    A list of bare reals other than a pair is rejected: it could be a vector.
    The reader of the decoded value checks that it is finite.
    """
    if isinstance(obj, list) and any(isinstance(x, list) for x in obj):
        return tuple(map(_complex, obj))
    if isinstance(obj, list) and len(obj) != 2:
        raise FileFormatError(f"cannot decode frequency {obj!r}; write a vector as [re, im] pairs")
    return _complex(obj)


def _file_form(value, key: str = ""):
    """A parameter value as scheme files store it under the file key `key`.

    Complex numbers, alone or inside lists and tuples, become [re, im]
    pairs, and so does each number of a `lambda` tuple (a vector).  The
    frequency of each (frequency, multiplicity) entry of `factors` is
    written as the `lambda` key writes it.  File-form values, bare reals and
    lists among them, come back unchanged.
    """
    if key == "lambda" and isinstance(value, tuple):
        return [[z.real, z.imag] for z in as_complex_vector(value)]
    if key == "factors" and isinstance(value, (list, tuple)):
        return [_file_form(f, "factor") for f in value]
    if key == "factor" and isinstance(value, (list, tuple)) and value:
        return [_file_form(value[0], "lambda"), *_file_form(value[1:])]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_file_form(v) for v in value]
    return value


def _decode_factors(fs):
    """Each [frequency, ...] entry with its frequency decoded; exp_product checks the shape."""
    if not isinstance(fs, list):
        return fs
    return [[_decode_lambda(f[0]), *f[1:]] if isinstance(f, list) and f else f for f in fs]


# The file keys whose file form differs from the factory's argument; every
# other value is passed as the file gives it.
_DECODE = {"lambda": _decode_lambda, "factors": _decode_factors}


def _catalog_entry(entry_id: str):
    if entry_id not in CATALOG:
        raise FileFormatError(f"unknown catalog id {entry_id!r}")
    return CATALOG[entry_id]


def _catalog_spec(entry, parameters) -> SchemeSpec:
    """Decode scheme-file parameters by their file keys and build the scheme.

    A null value is passed as None; the file key "lambda" is the factory's
    `lam`, because `lambda` is reserved in Python.  The factory checks each value.
    """
    params = as_record({} if parameters is None else parameters, entry.parameters, f"parameters for {entry.id}")
    kwargs = {}
    try:
        for key, value in params.items():
            decode = _DECODE.get(key)
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
        parameters[key] = _file_form(value, key)
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


# The keys every scheme file reads, whatever its kind.
_HEADER = ("kind", "dimension", "dilation", "name", "tau")


def load_scheme_obj(obj: dict) -> SchemeSpec:
    """A scheme file, read once: the header, then its kind's keys, which give the mask rule, the
    dilation, a default name, the documented tau and space; the file's `name` and `tau` override."""
    try:
        kind = obj["kind"]
        s = as_dimension(obj["dimension"])
        flat = [as_int(x, "dilation entry") for x in obj["dilation"]]
        name, tau = obj.get("name"), obj.get("tau")
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad scheme file: {exc}") from exc
    if len(flat) != s * s:
        raise FileFormatError("dilation list length must be dimension squared")
    if name is not None and not isinstance(name, str):
        raise FileFormatError(f"scheme file key 'name' must be a string, got {name!r}")

    if isinstance(kind, str) and kind.startswith("catalog:"):
        as_record(obj, (*_HEADER, "parameters"), "catalog scheme file")
        spec = _catalog_spec(_catalog_entry(kind.split(":", 1)[1]), obj.get("parameters"))
        if flat != [x for row in spec.M.mat for x in row]:
            raise FileFormatError("dilation in file disagrees with the catalog entry")
        M, rule, default_name, default_tau, space = spec.M, spec._rule, spec.name, spec.tau, spec.space
    elif kind == "explicit":
        as_record(obj, (*_HEADER, "levels", "tail"), "explicit scheme file")
        if "tail" not in obj:
            raise FileFormatError("explicit scheme needs a stationary tail symbol")
        try:
            syms = [LaurentSymbol.from_json_obj(lv, s) for lv in [*obj.get("levels", []), obj["tail"]]]
        except (KeyError, TypeError) as exc:
            raise FileFormatError(f"bad explicit scheme symbol: {exc!r}") from exc
        if not all(cmath.isfinite(c) for sym in syms for c in sym.terms().values()):
            raise FileFormatError("explicit scheme coefficients must be finite")
        M = DilationMatrix([flat[i * s : (i + 1) * s] for i in range(s)])
        rule = lambda k: syms[min(k, len(syms) - 1)]  # the tail beyond the listed levels
        default_name, default_tau, space = "explicit", None, None
    else:
        raise FileFormatError(f"unknown scheme kind {kind!r}")
    name = default_name if name is None else name
    return SchemeSpec(name, M, rule, tau=default_tau if tau is None else tau, space=space)


def _unique_keys(pairs) -> dict:
    """A JSON object whose keys all differ: a repeated key could be read either way."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise FileFormatError(f"duplicate JSON key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def read_json(path):
    """The JSON value in the file `path`, rejecting invalid JSON and repeated keys."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"invalid JSON in {path}: {exc}") from exc


def load_scheme(path) -> SchemeSpec:
    return load_scheme_obj(read_json(path))


def load_space_obj(obj: dict) -> ExpPolySpace:
    """A space file: each pair's `lambda` is a frequency read as scheme files
    read one, and `ExpPolySpace` reads the rest."""
    try:
        recs = as_record(obj, ("pairs",), "space file")["pairs"]
        pairs = [as_record(rec, ("gamma", "lambda"), "space pair") for rec in recs]
        return ExpPolySpace([(rec["gamma"], _decode_lambda(rec["lambda"])) for rec in pairs])
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad space file: {exc}") from exc


def load_space(path) -> ExpPolySpace:
    return load_space_obj(read_json(path))
