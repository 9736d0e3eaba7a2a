"""One fresh benchmark process: set-up timing, or a closed loop of CLI ops.

    python3 bench/worker.py setup MANIFEST RESULT
    python3 bench/worker.py run MANIFEST RESULT --seconds S [--trace]

`setup` times `import expsub`, building each dilation matrix of the
workload, and loading every generated scheme and space file.  `run` calls
`expsub.cli.main(argv)` for the manifest's ops in order, one at a time,
in whole passes over the list until the summed op time reaches S seconds.
Every op is validated after its clock stops.  With `--trace` every op runs
once under span tracing and once untraced, which measures the tracing
overhead.  Results go to RESULT as JSON.  The process must be started with
the checkout's `src` on PYTHONPATH; `run.py` does that.

`run` also times a fixed reference kernel between ops, which uses nothing of
expsub, so that `run.py` can take the machine's speed out of the timings.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import time
import traceback

import tracing
from validate import validate_op


def _setup(ops: list[dict]) -> dict:
    t0 = time.perf_counter()
    import expsub
    from expsub.files import load_scheme, load_space

    t_import = time.perf_counter()
    schemes, spaces = set(), set()
    for op in ops:
        argv = op["argv"]
        schemes.add(argv[argv.index("--scheme") + 1])
        if "--space" in argv:
            spaces.add(argv[argv.index("--space") + 1])
    dilations = set()
    for path in schemes:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        dilations.add((obj["dimension"], tuple(obj["dilation"])))
    for s, flat in sorted(dilations):
        expsub.DilationMatrix([list(flat[i * s:(i + 1) * s]) for i in range(s)])
    for path in sorted(schemes):
        load_scheme(path)
    for path in sorted(spaces):
        load_space(path)
    setup_s = time.perf_counter() - t0
    _time_reference()  # warm-up, not recorded
    ref_s = [_time_reference() for _ in range(SETUP_REF_SAMPLES)]
    return {"setup_s": setup_s, "import_s": t_import - t0, "ref_s": ref_s}


def _run_op(cli, argv: list[str]):
    """One op in-process; returns (seconds, exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an internal error fails the op, not the loop
            rc = None
            error = traceback.format_exc()
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), error or err.getvalue()


def _one(cli, op: dict, digests: dict, tracer=None) -> dict:
    """Run and validate one op, with tracing installed around it if given."""
    undo = None
    if tracer is not None:
        undo = tracing.install(tracer)
        tracer.op = op["id"]
    try:
        dt, rc, stdout, error = _run_op(cli, op["argv"])
    finally:
        if undo is not None:
            tracing.uninstall(undo)
            tracer.op = None
    return validate_op(op, dt, rc, stdout, error, digests)


# Untraced, the reference kernel is timed once for every REF_EVERY_S of op
# time, in a burst after the op that crosses each mark and outside the ops'
# clocks (about 3% more wall time per run); `ref_at` records how many ops
# had run at each sample, so run.py can scale every op by the samples around
# it.  It is also timed SETUP_REF_SAMPLES times right after each set-up.
REF_EVERY_S = 0.1
SETUP_REF_SAMPLES = 20


def reference_kernel() -> None:
    """Fixed work that uses nothing of expsub, timed to track machine speed.

    A gather over a tuple-keyed dict with complex multiply-adds, like the
    engine's inner loop, and a chain of small numpy array operations.  It
    takes about 3 ms on the machine named in README.md.
    """
    import numpy  # here, so that `setup` still times numpy's import

    grid = {(i, j): complex(i, j) for i in range(-30, 30) for j in range(-15, 15)}
    acc: dict = {}
    for (i, j), v in grid.items():
        key = (i // 2, j // 2)
        acc[key] = acc.get(key, 0j) + v * (0.5 + 0.25j)
    a = numpy.arange(2000.0)
    for _ in range(100):
        a = numpy.sqrt(a * a + 1.0)[::-1].copy()


def _time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def _run(ops: list[dict], seconds: float, traced: bool) -> dict:
    import expsub
    import expsub.cli as cli

    n = len(ops)
    digests: dict = {}
    # Untraced, each op runs once.  Traced, it runs once under span tracing
    # and once untraced, in alternating order, so drift in machine speed
    # cancels out of the overhead ratio.
    tracer = tracing.Tracer() if traced else None
    turns = ((tracer, None), (None, tracer)) if traced else ((None,),)
    records: dict = {tracer: [], None: []}
    spent, i = 0.0, 0
    ref_s, ref_at, next_ref = [], [], REF_EVERY_S
    if not traced:
        _time_reference()  # warm-up, not recorded
    # The loop stops at a pass boundary, so every run times the same op mix.
    # Traced, the untraced repeats count towards the run time too, so a
    # traced run takes about as long as an untraced one.
    while i == 0 or i % n or spent < seconds:
        for mode in turns[i % len(turns)]:
            records[mode].append(_one(cli, ops[i % n], digests, mode))
            spent += records[mode][-1]["dt"]
            while not traced and spent >= next_ref:
                ref_s.append(_time_reference())
                ref_at.append(i + 1)
                next_ref += REF_EVERY_S
        i += 1
    result = {"expsub_file": expsub.__file__, "ref_s": ref_s, "ref_at": ref_at,
              "records": [r for recs in records.values() for r in recs]}
    if traced:
        plain_s = sum(r["dt"] for r in records[None])
        traced_s = spent - plain_s
        result.update(
            passes=i // n,
            layers=tracing.layer_metrics(tracer.spans, tracer.loose, traced_s, i // n),
            traced_ops_per_s=i / traced_s,
            untraced_ops_per_s=i / plain_s,
        )
    result["digests"] = digests
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "run"])
    ap.add_argument("manifest")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    if args.mode == "setup":
        result = _setup(ops)
    else:
        result = _run(ops, args.seconds, args.trace)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tmp = args.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
