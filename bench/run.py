"""expsub benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports expsub from `./src` and
refuses to run without it.  It writes the seeded inputs under
`.bench_work/`, times set-up in fresh processes, runs the workload's ops in
one fresh process (a closed loop: one client, one thread), validates every
output, and prints one JSON object as the last line of standard output:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

# Set-up is timed in this many fresh processes; the median is reported.
SETUP_RUNS = 15

# op_tail_s is a fixed percentile per workload: the highest whole percentile,
# at most TAIL_MAX and at least the median, with at least ten ops beyond it
# in two passes over the op list.  A run repeats whole passes, so the same
# percentile picks the same op template however many passes fit in a run.
TAIL_MAX = 99

# fail_frac is reported as max(failed / attempted, FAIL_FLOOR) so it is never
# 0 and a ratio against it is defined; any single failure in a run of up to
# 1e5 ops lifts it above the floor.
FAIL_FLOOR = 1e-6

WORKER_TIMEOUT_S = 150

# Timings are reported at a reference machine speed.  This host switches
# between a fast and a slow state several times a second, and the share of
# time spent slow drifts by tens of percent within seconds and by up to 2x
# within half an hour (README.md, "Noise and bounds").  The worker therefore
# times a fixed reference kernel (worker.reference_kernel, which uses nothing
# of expsub) once for every 0.1 s of op time, and each op's time is
# multiplied by REF_NOMINAL_S / (trimmed mean of the REF_NEAR kernel samples
# nearest to it in the run): a mean, not a median, because an op lasts
# through many state switches and pays the average slowdown, and local,
# because the slow share moves within a run.  Set-up samples are scaled the
# same way by the kernel timed in their own process.  REF_NOMINAL_S is about
# the kernel's mean on the machine named in README.md, so the numbers read
# as wall times there.  The raw wall times and the mean factor are printed
# on the line before the result.
REF_NOMINAL_S = 0.003
REF_NEAR = 21  # about 2 s of op time
REF_TRIM = 0.2  # share cut from each end before the mean (preemptions)


def tail_percentile(n: int) -> int:
    for p in range(TAIL_MAX, 50, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(math.ceil(p * len(xs) / 100), 1) - 1]


def reference_time(samples: list[float]) -> float:
    """Mean of the kernel times with REF_TRIM of them cut from each end."""
    xs = sorted(samples)
    k = int(len(xs) * REF_TRIM)
    return statistics.fmean(xs[k:len(xs) - k])


def scale_times(times: list[float], ref_s: list[float], ref_at: list[int]) -> list[float]:
    """Op times at the reference speed.

    `ref_at[i]` is the number of ops run before kernel sample `ref_s[i]`,
    so op `j` sits between positions `j` and `j + 1`; it is scaled by the
    REF_NEAR samples nearest to its middle.
    """
    order = range(len(ref_s))
    out = []
    for j, dt in enumerate(times):
        near = sorted(order, key=lambda i: abs(ref_at[i] - j - 0.5))[:REF_NEAR]
        out.append(dt * REF_NOMINAL_S / reference_time([ref_s[i] for i in near]))
    return out


def checkout_env(root: Path) -> dict | None:
    """Environment for expsub processes of the checkout at `root`.

    None when `root/src/expsub` is missing.  Otherwise puts `root/src` first
    on sys.path and pins BLAS to one thread, here and in every process
    started with the returned environment, so numpy never competes with the
    measured thread for the cores.
    """
    src = root / "src"
    if not (src / "expsub" / "__init__.py").is_file():
        return None
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    return dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")


def _worker(args: list[str], env: dict) -> None:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: benchmark worker failed: {' '.join(args)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    env = checkout_env(root)
    if env is None:
        print(f"error: no expsub sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(HERE))
    import expsub
    import numpy

    import gen
    import tracing

    if Path(expsub.__file__).resolve().parent != (src / "expsub").resolve():
        print(f"error: imported expsub from {expsub.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {gen.WORKLOADS}",
              file=sys.stderr)
        return 2

    rel = f".bench_work/{args.workload}-s{args.seed}-t{args.trace}"
    work = root / rel
    shutil.rmtree(work, ignore_errors=True)
    ops = gen.generate(root, rel, args.workload, args.seed)
    manifest = f"{rel}/manifest.json"

    setups, setups_scaled = [], []
    for i in range(SETUP_RUNS):
        out = f"{rel}/setup{i}.json"
        _worker(["setup", manifest, out], env)
        one = json.loads((root / out).read_text())
        setups.append(one["setup_s"])
        setups_scaled.append(one["setup_s"] * REF_NOMINAL_S / reference_time(one["ref_s"]))

    out = f"{rel}/result.json"
    _worker(["run", manifest, out, "--seconds", str(args.seconds)]
            + (["--trace"] if args.trace else []), env)
    res = json.loads((root / out).read_text())

    records = res["records"]
    failed = [r for r in records if not r["ok"]]
    times = [r["dt"] for r in records]
    n = len(records)
    p_tail = tail_percentile(2 * len(ops))
    outputs = hashlib.sha256(
        json.dumps(sorted(res["digests"].items())).encode()
    ).hexdigest()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{n} ops over {len(ops)} templates, {len(failed)} failed")
    print(f"environment: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, expsub {expsub.__version__}, BLAS threads 1")
    print(f"op_tail_s is p{p_tail} of {n} ops; setup_s median of {SETUP_RUNS} (raw): "
          + ", ".join(f"{s:.4f}" for s in setups))
    print(f"output digest {outputs} over {len(res['digests'])} output files")
    for op in ops:
        if str(op["id"]) in res["digests"]:
            print(f"digest op{op['id']:02d} {res['digests'][str(op['id'])]} {op['label']}")
    for r in failed:
        print(f"FAILED op {r['id']} ({r['label']}): {r['reason']}\n  argv: {' '.join(r['argv'])}")

    if args.trace:
        metrics = {
            name: {"value": res["layers"][name], "unit": unit}
            for name, unit in tracing.LAYER_METRICS.items()
        }
        metrics["trace.ops_per_s"] = {"value": res["traced_ops_per_s"], "unit": "1/s"}
        metrics["trace.untraced_ops_per_s"] = {"value": res["untraced_ops_per_s"], "unit": "1/s"}
        metrics["trace.overhead"] = {
            "value": res["untraced_ops_per_s"] / res["traced_ops_per_s"], "unit": "x"
        }
        print(f"per-layer totals are per pass over the op list ({res['passes']} traced passes)")
    else:
        scaled = scale_times(times, res["ref_s"], res["ref_at"])
        raw = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(times),
            "op_tail_s": percentile(times, p_tail),
            "ops_per_s": n / sum(times),
        }
        print(f"{len(res['ref_s'])} reference kernel samples, op times scaled by "
              f"{sum(scaled) / sum(times):.4f} on average; raw: "
              + ", ".join(f"{k} {v:.5g}" for k, v in raw.items()))
        metrics = {
            "setup_s": {"value": statistics.median(setups_scaled), "unit": "s"},
            "op_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "op_tail_s": {"value": percentile(scaled, p_tail), "unit": "s"},
            "ops_per_s": {"value": n / sum(scaled), "unit": "1/s"},
            "fail_frac": {"value": max(len(failed) / n, FAIL_FLOOR), "unit": "ratio"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not failed, "attempted": n, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
