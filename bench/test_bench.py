"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q

They check the harness, not expsub: self-time arithmetic, output validation,
generator determinism, tracing wiring, and the refusal to run without sources.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from validate import sha256_file, validate_op  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_nested_spans():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    a = tr.begin("a")          # a: [0, 10]
    clock.now = 1
    b = tr.begin("b")          # b: [1, 4], child of a
    clock.now = 2
    c = tr.begin("c")          # c: [2, 3], child of b
    tr.count("leaf")
    clock.now = 3
    tr.end(c)
    tr.count("leaf")
    clock.now = 4
    tr.end(b)
    clock.now = 6
    d = tr.begin("d")          # d: [6, 8], child of a
    clock.now = 8
    tr.end(d)
    clock.now = 10
    tr.end(a)
    assert [s.parent for s in tr.spans] == [None, a, b, a]
    assert tracing.self_times(tr.spans) == [10 - 3 - 2, 3 - 1, 1, 2]
    assert tr.spans[c].counts == {"leaf": 1} and tr.spans[b].counts == {"leaf": 1}


def test_self_time_counts_overlapping_children_once():
    spans = [
        tracing.Span("p", 0.0, 10.0),
        tracing.Span("x", 2.0, 6.0, parent=0),
        tracing.Span("y", 4.0, 7.0, parent=0),
        tracing.Span("z", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10 - 5 - 1)


def test_generator_is_deterministic_per_seed(tmp_path):
    for workload in gen.WORKLOADS:
        trees = []
        for root, seed in ((tmp_path / "a", 3), (tmp_path / "b", 3), (tmp_path / "c", 4)):
            gen.generate(root, "w", workload, seed)
            trees.append({p.relative_to(root): p.read_bytes()
                          for p in sorted((root / "w").rglob("*")) if p.is_file()})
        assert trees[0] == trees[1], workload
        assert trees[0] != trees[2], workload


def _run_cli(argv):
    from expsub import cli

    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_corrupted_output_fails_validation_and_changes_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = gen.generate(tmp_path, "w", "refine_large", 5)
    op = next(o for o in ops if o["label"] == "refine explicit exp_bspline m=3")

    rc, stdout = _run_cli(op["argv"])
    good = sha256_file(op["out"])
    digests = {}
    assert validate_op(op, 0.0, rc, stdout, "", digests)["ok"]
    assert digests == {op["id"]: good}

    rc, stdout = _run_cli(op["argv"])
    lines = Path(op["out"]).read_text().splitlines(keepends=True)
    head, re, im = lines[7].rsplit(",", 2)
    lines[7] = f"{head},{float(re) + 1e-3!r},{im}"
    Path(op["out"]).write_text("".join(lines))
    assert sha256_file(op["out"]) != good
    rec = validate_op(op, 0.0, rc, stdout, "", digests)
    assert not rec["ok"] and rec["reason"].startswith("mass")
    assert rec["argv"] == op["argv"]


def test_expected_exit_and_tau_are_checked(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = gen.generate(tmp_path, "w", "verify", 5)
    solve = next(o for o in ops if o["label"] == "solve-tau dual4_binary")
    rc, stdout = _run_cli(solve["argv"])
    assert validate_op(solve, 0.0, rc, stdout, "", {})["ok"]
    assert not validate_op(dict(solve, tau=[0.5]), 0.0, rc, stdout, "", {})["ok"]
    assert not validate_op(solve, 0.0, 1, stdout, "", {})["ok"]


def test_tracing_parents_and_restores(tmp_path, monkeypatch):
    import expsub.checker
    import expsub.engine
    import expsub.lattice

    monkeypatch.chdir(tmp_path)
    ops = gen.generate(tmp_path, "w", "stepwise", 5)
    op = next(o for o in ops if o["label"] == "stepwise shear raw")
    originals = (expsub.engine.apply_operator, expsub.checker.apply_operator,
                 expsub.lattice.DilationMatrix.solve_integer)
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        assert _run_cli(op["argv"])[0] == 0
    finally:
        tracing.uninstall(undo)
    assert (expsub.engine.apply_operator, expsub.checker.apply_operator,
            expsub.lattice.DilationMatrix.solve_integer) == originals

    names = [s.name for s in tr.spans]
    applies = [s for s in tr.spans if s.name == "engine.apply_operator"]
    assert applies and all(tr.spans[s.parent].name == "checker.stepwise_test" for s in applies)
    assert all(s.counts.get("lattice.solve_integer", 0) > 0 for s in applies)
    assert names[0] == "cli.main" and "files.load_scheme" in names
    layers = tracing.layer_metrics(tr.spans, tr.loose, 1.0, 1)
    assert set(layers) == set(tracing.LAYER_METRICS)
    assert layers["engine.madds"] == sum(s.attrs["f"] * s.attrs["mask"] for s in applies)
    assert layers["checker.conditions"] == 0 and layers["engine.grid_io.self_s"] == 0


def test_tail_percentile_keeps_ten_ops_beyond(tmp_path):
    assert [run.tail_percentile(n) for n in (12, 48, 77, 100, 1000, 2900)] == [50, 79, 87, 90, 99, 99]
    assert run.percentile([float(i) for i in range(1, 101)], 90) == 90.0
    # op_tail_s uses one percentile per workload, from two passes over its ops.
    fixed = {w: run.tail_percentile(2 * len(gen.generate(tmp_path, w, w, 1)))
             for w in gen.WORKLOADS}
    assert fixed == {"refine_large": 82, "verify": 87, "stepwise": 79}


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


def test_reference_time_is_a_trimmed_mean():
    # 20% of 40 samples is eight from each end: the preemption spikes go.
    samples = [0.003] * 18 + [0.005] * 18 + [0.0001, 0.0002, 0.05, 0.07]
    assert run.reference_time(samples) == pytest.approx(0.004)


def test_scale_times_follows_the_local_kernel_speed():
    # The machine runs at half speed for the second half of the run: ops and
    # kernel samples there take twice as long, and scaling evens them out.
    times = [0.2] * 30 + [0.4] * 30
    ref_at = list(range(1, 61))
    ref_s = [run.REF_NOMINAL_S] * 30 + [2 * run.REF_NOMINAL_S] * 30
    scaled = run.scale_times(times, ref_s, ref_at)
    assert scaled[:15] == pytest.approx([0.2] * 15)
    assert scaled[45:] == pytest.approx([0.2] * 15)
