"""Command-line front end.

Subcommands: check, solve-tau, refine, limit, catalog.  Exit codes follow the
usual verification convention: 0 all requested checks pass, 1 a condition
fails, 2 bad input, such as catalog parameters outside a family's domain (a
dual four-point level whose denominator factor vanishes), a tolerance that
is negative or not finite, or a mask or sample that overflows the double range.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .catalog import CATALOG
from .checker import (
    DEFAULT_TOL,
    BranchAmbiguityError,
    CheckError,
    NoAdmissibleTauError,
    check_generation,
    check_reproduction,
    solve_tau,
    stepwise_tests,
)
from .engine import (
    EngineError,
    grid_from_json_obj,
    grid_to_csv,
    grid_to_json,
    limit_sample_arrays,
    refine,
    write_rows,
)
from .files import FileFormatError, load_scheme, load_space, scheme_file_for_catalog


def _parse_tau(text: str) -> tuple[float, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise FileFormatError("empty tau")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise FileFormatError(f"tau must be a list of reals: {exc}") from exc


def _write_json(path: str, obj) -> None:
    text = json.dumps(obj, indent=2) + "\n"  # json.dump writes each small chunk on its own
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_check(args) -> int:
    scheme = load_scheme(args.scheme)
    space = load_space(args.space)
    if args.kmin < 0 or args.kmax < args.kmin:
        raise CheckError("need 0 <= kmin <= kmax")
    k_range = (args.kmin, args.kmax)
    modes = ["generation", "reproduction", "stepwise"] if args.mode == "all" else [args.mode]

    tau = None
    if "reproduction" in modes or "stepwise" in modes:
        if args.tau is not None:
            tau = _parse_tau(args.tau)
        elif scheme.tau is not None:
            tau = scheme.tau
        else:
            try:
                tau = solve_tau(scheme, space, k_probe=args.kmin, tol=args.tol)
            except CheckError as exc:
                print(f"error: no tau given and solving failed: {exc}", file=sys.stderr)
                return 2

    reports = []
    for mode in modes:
        if mode == "generation":
            batch = [check_generation(scheme, space, k_range, tol=args.tol)]
        elif mode == "reproduction":
            batch = [check_reproduction(scheme, space, tau, k_range, tol=args.tol)]
        else:
            batch = stepwise_tests(scheme, space, tau, k_range, args.window, tol=args.tol)
        for rep in batch:
            print(rep.table())
            reports.append(rep)
    verdict = all(rep.verdict for rep in reports)
    if args.report:
        _write_json(
            args.report,
            {
                "scheme": scheme.name,
                "space": space.to_json_obj(),
                "tau": None if tau is None else list(tau),
                "tol": args.tol,
                "kmin": args.kmin,
                "kmax": args.kmax,
                "verdict": "pass" if verdict else "fail",
                "results": [rep.to_json_obj() for rep in reports],
            },
        )
    return 0 if verdict else 1


def cmd_solve_tau(args) -> int:
    scheme = load_scheme(args.scheme)
    space = load_space(args.space)
    try:
        tau = solve_tau(scheme, space, k_probe=args.kprobe, tol=args.tol)
    except (NoAdmissibleTauError, BranchAmbiguityError) as exc:
        print(f"no admissible tau: {exc}", file=sys.stderr)
        return 1
    print(" ".join(format(t, ".17g") for t in tau))
    return 0


def cmd_refine(args) -> int:
    scheme = load_scheme(args.scheme)
    with open(Path(args.input), "r", encoding="utf-8") as fh:
        data = grid_from_json_obj(json.load(fh))
    if data.s != scheme.M.s:
        raise EngineError("data dimension does not match the scheme")
    out = refine(scheme, data, args.levels, start_level=args.start_level)
    if args.out.endswith(".csv"):
        with open(Path(args.out), "w", encoding="utf-8", newline="") as fh:
            grid_to_csv(out, fh)
    else:
        with open(Path(args.out), "w", encoding="utf-8") as fh:
            grid_to_json(out, fh)
    print(f"wrote {len(out.values)} values at level {out.level} to {args.out}")
    return 0


def cmd_limit(args) -> int:
    scheme = load_scheme(args.scheme)
    t, vals = limit_sample_arrays(scheme, args.rounds, start_level=args.start_level)
    s = scheme.M.s
    row = ",".join(["%.17g"] * (s + 2)) + "\n"  # each field as solve-tau prints tau
    with open(Path(args.out), "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([f"t{i}" for i in range(s)] + ["re", "im"]) + "\n")
        write_rows(fh, row, [*t.T, vals.real, vals.imag])
    print(f"wrote {len(vals)} limit samples to {args.out}")
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        if args.json:
            print(json.dumps([CATALOG[k].to_json_obj() for k in sorted(CATALOG)], indent=2))
        else:
            for k in sorted(CATALOG):
                e = CATALOG[k]
                print(f"{e.id}: {e.summary}")
                print(f"    tau: {e.documented_tau}; space: {e.documented_space}")
        return 0
    # emit
    if not args.id:
        raise FileFormatError("emit needs --id")
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict) or "name" in params:
        raise FileFormatError("--params must be a JSON object of catalog parameters")
    obj = scheme_file_for_catalog(args.id, **params)
    if args.out:
        _write_json(args.out, obj)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(obj, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="expsub",
        description="Verify generation/reproduction conditions of subdivision schemes, "
        "solve shift parameters, refine data, and emit limit samples.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run generation/reproduction/stepwise checks")
    c.add_argument("--scheme", required=True)
    c.add_argument("--space", required=True)
    c.add_argument("--tau", default=None, help="shift parameter, comma or space separated reals")
    c.add_argument("--kmin", type=int, default=0)
    c.add_argument("--kmax", type=int, default=5)
    c.add_argument("--tol", type=float, default=DEFAULT_TOL)
    c.add_argument("--mode", choices=["generation", "reproduction", "stepwise", "all"], default="all")
    c.add_argument("--window", type=int, default=8, help="box radius for the stepwise test")
    c.add_argument("--report", default=None, help="write a JSON report here")
    c.set_defaults(func=cmd_check)

    st = sub.add_parser("solve-tau", help="solve for the shift parameter")
    st.add_argument("--scheme", required=True)
    st.add_argument("--space", required=True)
    st.add_argument("--kprobe", type=int, default=0)
    st.add_argument("--tol", type=float, default=DEFAULT_TOL)
    st.set_defaults(func=cmd_solve_tau)

    r = sub.add_parser("refine", help="apply subdivision steps to grid data")
    r.add_argument("--scheme", required=True)
    r.add_argument("--input", required=True, help="GridData JSON")
    r.add_argument("--levels", type=int, required=True)
    r.add_argument("--start-level", type=int, default=None)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_refine)

    li = sub.add_parser("limit", help="basic limit function samples from the delta sequence")
    li.add_argument("--scheme", required=True)
    li.add_argument("--rounds", type=int, required=True)
    li.add_argument("--start-level", type=int, default=0)
    li.add_argument("--out", required=True)
    li.set_defaults(func=cmd_limit)

    cat = sub.add_parser("catalog", help="list catalog entries or emit a scheme file")
    cat.add_argument("action", choices=["list", "emit"])
    cat.add_argument("--id", default=None)
    cat.add_argument("--params", default=None, help="JSON object of parameters")
    cat.add_argument("--out", default=None)
    cat.add_argument("--json", action="store_true", help="machine-readable listing")
    cat.set_defaults(func=cmd_catalog)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs far more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: overflow past the double range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
