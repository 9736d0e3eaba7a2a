"""On-disk scheme and space descriptions.

Scheme files name either a catalog entry with its parameters or an explicit
per-level coefficient list with a stationary tail.  Complex numbers are
always stored as [re, im] pairs; floats round-trip losslessly.
"""

from __future__ import annotations

import cmath
import inspect
import json
from functools import cache, partial
from pathlib import Path

from .catalog import CATALOG
from .lattice import DilationMatrix, as_complex_vector, as_dimension, as_point, as_real, as_record
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
    return complex(as_real(obj, "lambda"))


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


def _encode_lambda(value):
    """A frequency in file form: a complex as [re, im] and a tuple (a vector) as [re, im] pairs;
    a file-form value, a bare real or a list, as it is."""
    if isinstance(value, tuple):
        return [[z.real, z.imag] for z in as_complex_vector(value)]
    return [value.real, value.imag] if isinstance(value, complex) else value


def _each_factor(form, fs):
    """`form` applied to the frequency of each [frequency, ...] entry of `factors`; exp_product checks the shape."""
    if not isinstance(fs, (list, tuple)):
        return fs
    return [[form(f[0]), *f[1:]] if isinstance(f, (list, tuple)) and f else f for f in fs]


# The file keys whose file form differs from the factory's argument, each with its (encode,
# decode) pair, and the one file key that is not the argument's name: `lambda` is reserved in Python.
_FORMS = {
    "lambda": (_encode_lambda, _decode_lambda),
    "factors": (partial(_each_factor, _encode_lambda), partial(_each_factor, _decode_lambda)),
}
_FILE_KEY = {"lam": "lambda"}


@cache
def _arguments(factory) -> dict:
    """The factory's parameters by file key, read once per factory."""
    return {_FILE_KEY.get(p.name, p.name): p for p in inspect.signature(factory).parameters.values()}


def _catalog_entry(entry_id: str):
    if entry_id not in CATALOG:
        raise FileFormatError(f"unknown catalog id {entry_id!r}")
    return CATALOG[entry_id]


def _catalog_spec(entry, parameters) -> SchemeSpec:
    """Decode scheme-file parameters by their file keys and build the scheme.

    A null value is passed as None, and a parameter without a default must be
    given.  The factory checks each value.
    """
    params = as_record({} if parameters is None else parameters, entry.parameters, f"parameters for {entry.id}")
    args = _arguments(entry.factory)
    missing = [key for key, p in args.items() if p.default is p.empty and key not in params]
    if missing:
        raise FileFormatError(f"bad parameters for {entry.id}: missing {', '.join(map(repr, missing))}")
    try:
        kwargs = {args[k].name: v if v is None or k not in _FORMS else _FORMS[k][1](v) for k, v in params.items()}
        return entry.factory(**kwargs)
    except ValueError as exc:
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
        key = _FILE_KEY.get(key, key)
        parameters[key] = _FORMS[key][0](value) if key in _FORMS else value
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
    if not isinstance(obj, dict):
        raise FileFormatError(f"a scheme file must be a JSON object, got {obj!r}")
    kind, name, tau = obj.get("kind"), obj.get("name"), obj.get("tau")
    s = as_dimension(obj.get("dimension"))
    flat = list(as_point(obj.get("dilation"), what="dilation entry"))
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
        levels = obj.get("levels", [])
        if not isinstance(levels, list) or "tail" not in obj:
            raise FileFormatError("explicit scheme needs a list of level symbols and a stationary tail symbol")
        syms = [LaurentSymbol.from_json_obj(lv, s) for lv in [*levels, obj["tail"]]]
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
        recs = as_record(obj, ("pairs",), "space file").get("pairs")
        if not isinstance(recs, list):
            raise FileFormatError(f"'pairs' must be a list, got {recs!r}")
        pairs = [as_record(rec, ("gamma", "lambda"), "space pair") for rec in recs]
        return ExpPolySpace([(rec.get("gamma"), _decode_lambda(rec.get("lambda"))) for rec in pairs])
    except ValueError as exc:
        raise FileFormatError(f"bad space file: {exc}") from exc


def load_space(path) -> ExpPolySpace:
    return load_space_obj(read_json(path))
