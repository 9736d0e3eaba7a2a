"""Validation of one benchmark op against the expected outcome in its manifest.

Runs after the op's clock stops.  A failed op stays in the mix and is
counted; its record carries the argv so it can be reported with its inputs.
"""

from __future__ import annotations

import hashlib
import json
import os

# Mass invariant sum(out) = prod_k a^[k](1) * sum(in): the error of a sum of
# n doubles is bounded by about n * 1.1e-16 * sum(|out|), under 1e-11 at the
# 1e5 points of the largest output, so 1e-9 leaves room without hiding a
# wrong value of the size of one point.
MASS_RTOL = 1e-9

# A solved tau must match the documented one to this absolute error.
TAU_ATOL = 1e-9


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_mass(path: str, expected: complex) -> str:
    """'' when the CSV's values (last two columns) sum to `expected`."""
    total = 0j
    scale = 0.0
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, re, im = line.rsplit(",", 2)
            v = complex(float(re), float(im))
            total += v
            scale += abs(v)
    err = abs(total - expected)
    if not err <= MASS_RTOL * max(scale, 1.0):
        return f"mass {total!r} differs from {expected!r} by {err:.3e} (sum|out| {scale:.3e})"
    return ""


def check_stepwise(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    for res in rep["results"]:
        if not res["max_err"] <= res["tol"]:
            return f"stepwise level {res['k']}: max_err {res['max_err']!r} > tol {res['tol']!r}"
    return ""


def check_tau(stdout: str, expected: list[float]) -> str:
    try:
        got = [float(x) for x in stdout.split()]
    except ValueError:
        return f"solve-tau printed {stdout!r}"
    if len(got) != len(expected) or any(
        not abs(g - e) <= TAU_ATOL for g, e in zip(got, expected)
    ):
        return f"solve-tau gave {got}, documented tau is {expected}"
    return ""


def validate_op(op: dict, dt: float, rc, stdout: str, error: str, digests: dict) -> dict:
    """Check one op's outcome; `digests` maps op id -> sha256 of its first output."""
    rec = {"id": op["id"], "dt": dt, "ok": True}
    path = op.get("out") or op.get("report")
    if rc != op["expect_exit"]:
        reason = f"exit {rc!r}, expected {op['expect_exit']}: {error.strip()[-500:]}"
        if "report" in op and os.path.exists(path):
            reason += check_stepwise(path)
    elif "mass" in op:
        reason = check_mass(path, complex(*op["mass"]))
    elif "report" in op:
        reason = check_stepwise(path)
    elif "tau" in op:
        reason = check_tau(stdout, op["tau"])
    else:
        reason = ""
    if not reason:
        # The output file, or the printed verdict table when there is none.
        digest = sha256_file(path) if path else hashlib.sha256(stdout.encode()).hexdigest()
        if digests.setdefault(op["id"], digest) != digest:
            reason = "output differs from an earlier run of the same op"
    for key in ("out", "report"):
        if key in op and os.path.exists(op[key]):
            os.remove(op[key])
    if reason:
        rec.update(ok=False, reason=reason, label=op["label"], argv=op["argv"])
    return rec
