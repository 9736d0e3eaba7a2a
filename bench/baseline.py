"""Re-measure the baseline table of ROADMAP.md once, outside the gated metrics.

    python3 bench/baseline.py [--out bench/results/baseline.json]

Run from the root of a checkout.  Each row is timed once (a single wall-clock
measurement, like the table it re-measures) and written next to the value
the table records.  A row "matches" when the new time is within a factor
MATCH_FACTOR of the recorded one either way; the factor is wide because a
single timing on a shared 2-core machine varies by about that much (see
bench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

from run import checkout_env

MATCH_FACTOR = 1.3


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _git_commit(root: Path) -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="bench/results/baseline.json")
    args = ap.parse_args(argv)
    root = Path.cwd()
    env = checkout_env(root)
    if env is None:
        print(f"error: no expsub sources at {root / 'src'}", file=sys.stderr)
        return 2

    rows = []

    def row(name, recorded_s, measured_s, note=""):
        ratio = measured_s / recorded_s
        rows.append({
            "row": name, "roadmap_s": recorded_s, "measured_s": measured_s,
            "ratio": ratio, "matches": 1 / MATCH_FACTOR <= ratio <= MATCH_FACTOR,
            **({"note": note} if note else {}),
        })
        print(f"{name:55s} roadmap {recorded_s:8.3f} s  now {measured_s:8.3f} s  x{ratio:.2f}",
              flush=True)

    imp = subprocess.run(
        [sys.executable, "-c",
         "import time; t = time.perf_counter(); import expsub; print(time.perf_counter() - t)"],
        env=env, capture_output=True, text=True, check=True,
    )
    import expsub as ex
    from expsub import cli
    from expsub.files import scheme_file_for_catalog

    bsp3 = ex.exp_bspline(3, 1.0)
    delta1 = ex.GridData.delta(1)
    row("refine exp_bspline m=3, 12 rounds", 4.9,
        _timed(lambda: ex.refine(ex.exp_bspline(3, 1.0), delta1, 12)))
    row("basic_limit_samples exp_bspline m=3, 12 rounds", 6.8,
        _timed(lambda: ex.basic_limit_samples(bsp3, 12)))
    out = []
    row("refine butterfly, 5 rounds", 4.6,
        _timed(lambda: out.append(ex.refine(ex.butterfly((1.0, 1.0)), ex.GridData.delta(2), 5))),
        note=f"{len(out[0])} points")
    row("refine sqrt3 approximating, 6 rounds", 1.4,
        _timed(lambda: ex.refine(ex.sqrt3_schemes()["approximating"], ex.GridData.delta(2), 6)))
    bfly = ex.butterfly((1.0, 1.0))
    row("stepwise_test butterfly, window 4, k=0, documented 10-pair space", 0.70,
        _timed(lambda: ex.stepwise_test(bfly, bfly.space, (0.0, 0.0), 0, 4)))
    row("check_reproduction butterfly, k=0..4", 0.013,
        _timed(lambda: ex.check_reproduction(ex.butterfly((1.0, 1.0)), bfly.space,
                                             (0.0, 0.0), (0, 4))))
    d4 = ex.dual4_binary(1.0)
    row("check_reproduction dual4_binary, k=0..40", 0.014,
        _timed(lambda: ex.check_reproduction(ex.dual4_binary(1.0), d4.space, (-0.5,), (0, 40))))

    work = root / ".bench_work" / "baseline"
    work.mkdir(parents=True, exist_ok=True)
    bsp_file = work / "bsp3.json"
    bsp_file.write_text(json.dumps(scheme_file_for_catalog("exp_bspline", m=3, lam=1 + 0j)))
    bf_file = work / "butterfly.json"
    bf_file.write_text(json.dumps(scheme_file_for_catalog("butterfly", lam=(1 + 0j, 1 + 0j))))
    space_file = work / "butterfly_space.json"
    space_file.write_text(json.dumps(bfly.space.to_json_obj()))
    with contextlib.redirect_stdout(io.StringIO()):
        t_limit = _timed(lambda: cli.main(["limit", "--scheme", str(bsp_file), "--rounds", "12",
                                           "--out", str(work / "limit.csv")]))
    row("CLI expsub limit exp_bspline m=3, 12 rounds", 9.0, t_limit)
    with contextlib.redirect_stdout(io.StringIO()):
        t_check = _timed(lambda: cli.main(["check", "--scheme", str(bf_file), "--space",
                                           str(space_file), "--kmin", "0", "--kmax", "4",
                                           "--mode", "all"]))
    row("CLI expsub check --mode all butterfly, k=0..4", 4.3, t_check,
        note="documented 10-pair space, default window 8; the table names neither")
    row("import expsub (fresh process)", 0.31, float(imp.stdout.strip()))

    suite = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    m = re.search(r"(\d+) passed.* in ([\d.]+)s", suite.stdout)
    if m:
        row("Tier-1 test suite", 18.1, float(m.group(2)), note=f"{m.group(1)} passed")

    record = {
        "what": "ROADMAP baseline table, re-measured once; not a gated metric",
        "match_rule": f"measured within a factor {MATCH_FACTOR} of the ROADMAP value",
        "environment": {
            "git_commit": _git_commit(root),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "blas_threads": 1,
            "platform": platform.platform(),
        },
        "rows": rows,
        "not_matching": [r["row"] for r in rows if not r["matches"]],
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}; rows not matching: {record['not_matching'] or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
