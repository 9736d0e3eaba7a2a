"""Seeded input generator for the expsub benchmark.

`generate(root, rel, workload, seed)` writes every input file of one run
under `root/rel` and returns the op list ("manifest").  Each op is one CLI
argv plus its expected outcome: the exit code, the documented tau for
`solve-tau`, the mass prod_k a^[k](1) * sum(input) for `limit`/`refine`, or
the stepwise report to read.  Paths inside the manifest are relative to
`root`, so the same seed gives byte-identical files wherever they are written.

Complex numbers are always written as explicit [re, im] pairs: a bare
2-list of reals is read by the loader as one complex number, so a 2-D real
frequency must never be written that way.

The op list of a workload is a fixed sequence of templates, each used once
with a real and once with an imaginary frequency (complex data costs more to
compute and to format); the seed draws only their parameters (frequency
values, level ranges, grid values, probe level), so every seed asks for the
same amount of work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from expsub.files import load_scheme_obj
from expsub.files import scheme_file_for_catalog as _catalog

# Checks at k >= 64 raise today (lattice.MAX_INV_POWER, a known defect);
# check levels reach inverse power k + 1, so ranges stop at 62.
KMAX = 62


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _freq(z: float, imaginary: bool) -> complex:
    return complex(0.0, z) if imaginary else complex(z, 0.0)


def _lam1(rng: random.Random, imaginary: bool, lo: float, hi: float) -> complex:
    """A nonzero 1-D frequency, real or purely imaginary."""
    return _freq(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)), imaginary)


def _lam2(rng: random.Random, imaginary: bool, lo: float, hi: float) -> tuple[complex, ...]:
    """A 2-D frequency in R^2 or i R^2 with both components nonzero."""
    return tuple(
        _freq(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)), imaginary) for _ in range(2)
    )


def _space(pairs) -> dict:
    """Space file from (gamma, lambda-vector) pairs, written downward closed."""
    return {
        "pairs": [
            {"gamma": list(g), "lambda": [_pair(complex(z)) for z in lam]}
            for g, lam in pairs
        ]
    }


def _conic(lam: complex) -> dict:
    return _space([((0,), (0j,)), ((1,), (0j,)), ((0,), (lam,)), ((0,), (-lam,))])


def _poly2d(lamv, max_degree: int) -> dict:
    return _space(
        [
            ((i, j), lamv)
            for i in range(max_degree + 1)
            for j in range(max_degree + 1)
            if i + j <= max_degree
        ]
    )


_ZERO2 = (0j, 0j)


def _mass(levels: list[list[dict]]) -> complex:
    """prod_k a^[k](1) from the symbols' JSON coefficient lists."""
    total = 1 + 0j
    for terms in levels:
        total *= sum(complex(t["re"], t["im"]) for t in terms)
    return total


class _Writer:
    """Numbers and writes one run's input files and collects its ops."""

    def __init__(self, root: Path, rel: str):
        self.root = Path(root)
        self.rel = rel
        (self.root / rel / "in").mkdir(parents=True, exist_ok=True)
        (self.root / rel / "out").mkdir(parents=True, exist_ok=True)
        self.ops: list[dict] = []

    def file(self, name: str, obj) -> str:
        path = f"{self.rel}/in/op{len(self.ops):02d}_{name}.json"
        text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
        (self.root / path).write_text(text, encoding="utf-8")
        return path

    def out(self, name: str) -> str:
        return f"{self.rel}/out/op{len(self.ops):02d}_{name}"

    def add(self, label: str, argv: list[str], **expect) -> None:
        self.ops.append({"id": len(self.ops), "label": label, "argv": argv, **expect})


# -- refine_large -----------------------------------------------------------------

# (label, catalog id, frequency kind (0 none, 1 or 2 components), extra
# parameters, rounds).  1-D outputs hold 1.4-3.6e4 points, 2-D ones 3.6-5.3e3:
# 2-D points cost about ten times more today, and larger 2-D ops would leave a
# 25 s run too few ops for a tail percentile with ten ops beyond it.
_LIMITS = [
    ("limit exp_bspline m=2", "exp_bspline", 1, {"m": 2}, 15),
    ("limit dual4_binary", "dual4_binary", 1, {}, 11),
    ("limit exp_bspline m=3", "exp_bspline", 1, {"m": 3}, 9),
    ("limit dual4_ternary", "dual4_ternary", 1, {}, 8),
    ("limit butterfly", "butterfly", 2, {}, 4),
    ("limit exp_box_spline", "exp_box_spline", 2, {"n_dil": 2}, 6),
    ("limit shear", "sheared_convolution", 2, {"normalized": None}, 5),
    ("limit sqrt3 approximating", "sqrt3", 0, {"variant": "approximating"}, 5),
    ("limit sqrt3 interpolatory", "sqrt3", 0, {"variant": "interpolatory"}, 5),
]

# (label, catalog id, frequency kind, extra parameters, grid side, levels).
_REFINES = [
    ("refine explicit dual4_binary", "dual4_binary", 1, {}, 240, 6),
    ("refine explicit exp_bspline m=3", "exp_bspline", 1, {"m": 3}, 80, 5),
    ("refine explicit butterfly", "butterfly", 2, {}, 10, 2),
    ("refine explicit sqrt3", "sqrt3", 0, {"variant": "interpolatory"}, 9, 3),
    ("refine explicit shear", "sheared_convolution", 2, {"normalized": True}, 9, 3),
]

_EXPLICIT_LEVELS = 3  # per-level symbols before the stationary tail


def _catalog_params(rng, imag: bool, kind: int, extra: dict, lo: float, hi: float) -> dict:
    params = dict(extra)
    if params.get("normalized", False) is None:
        params["normalized"] = rng.random() < 0.5
    if kind == 1:
        params["lam"] = _lam1(rng, imag, lo, hi)
    elif kind == 2:
        params["lam"] = _lam2(rng, imag, lo, hi)
    return params


def _refine_large(w: _Writer, rng: random.Random, imag: bool) -> None:
    for label, entry, kind, extra, rounds in _LIMITS:
        obj = _catalog(entry, **_catalog_params(rng, imag, kind, extra, 0.3, 1.5))
        spec = load_scheme_obj(obj)
        mass = _mass([spec.symbol(k).to_json_obj() for k in range(rounds)])
        scheme = w.file("scheme", obj)
        out = w.out("limit.csv")
        w.add(
            label,
            ["limit", "--scheme", scheme, "--rounds", str(rounds), "--out", out],
            expect_exit=0, out=out, mass=_pair(mass),
        )
    for label, entry, kind, extra, side, levels in _REFINES:
        spec = load_scheme_obj(_catalog(entry, **_catalog_params(rng, imag, kind, extra, 0.3, 1.5)))
        s = spec.M.s
        syms = [spec.symbol(k).to_json_obj() for k in range(_EXPLICIT_LEVELS + 1)]
        obj = {
            "name": f"explicit {entry}",
            "dimension": s,
            "dilation": [x for row in spec.M.mat for x in row],
            "kind": "explicit",
            "levels": syms[:-1],
            "tail": syms[-1],
        }
        start = rng.randint(0, _EXPLICIT_LEVELS)
        lo = [rng.randint(-side, 0) for _ in range(s)]
        idxs = [()]
        for axis in range(s):
            idxs = [t + (lo[axis] + i,) for t in idxs for i in range(side)]
        values = [
            {"idx": list(i), "re": rng.uniform(-1, 1), "im": rng.uniform(-1, 1)}
            for i in idxs
        ]
        grid = {"level": start, "tau": [0.0] * s, "values": values}
        used = [syms[min(k, _EXPLICIT_LEVELS)] for k in range(start, start + levels)]
        mass = _mass(used) * sum(complex(v["re"], v["im"]) for v in values)
        scheme = w.file("scheme", obj)
        data = w.file("grid", grid)
        out = w.out("refine.csv")
        w.add(
            label,
            ["refine", "--scheme", scheme, "--input", data, "--levels", str(levels),
             "--out", out],
            expect_exit=0, out=out, mass=_pair(mass),
        )


# -- verify -----------------------------------------------------------------------


def _levels(rng, span: int) -> list[str]:
    kmin = rng.randint(0, KMAX - span + 1)
    return ["--kmin", str(kmin), "--kmax", str(kmin + span - 1)]


def _check(w, rng, label, scheme_obj, space_obj, mode, span, expect, tau=None):
    argv = ["check", "--scheme", w.file("scheme", scheme_obj),
            "--space", w.file("space", space_obj), "--mode", mode, *_levels(rng, span)]
    if tau is not None:
        # "--tau=" form: argparse would take a leading "-0.5,0.5" for an option.
        argv.append("--tau=" + ",".join(repr(t) for t in tau))
    w.add(label, argv, expect_exit=expect)


def _solve(w, rng, label, scheme_obj, space_obj, tau):
    argv = ["solve-tau", "--scheme", w.file("scheme", scheme_obj),
            "--space", w.file("space", space_obj), "--kprobe", str(rng.randint(0, 3))]
    if tau is None:
        w.add(label, argv, expect_exit=1)
    else:
        w.add(label, argv, expect_exit=0, tau=list(tau))


def _verify(w: _Writer, rng: random.Random, imag: bool) -> None:
    # Expected positives: each family with its documented tau and space.
    lam = _lam1(rng, imag, 0.3, 1.5)
    _check(w, rng, "reproduction dual4_binary", _catalog("dual4_binary", lam=lam),
           _conic(lam), "reproduction", 16, 0)
    lam = _lam1(rng, imag, 0.3, 1.5)
    _check(w, rng, "reproduction dual4_ternary", _catalog("dual4_ternary", lam=lam),
           _conic(lam), "reproduction", 16, 0)
    lam = _lam1(rng, imag, 0.3, 1.5)
    # 24 levels put this op among the 9-14 ms checks, so op_p50_s falls in a
    # dense run of op costs instead of the gap below them.
    _check(w, rng, "generation dual4_binary", _catalog("dual4_binary", lam=lam),
           _conic(lam), "generation", 24, 0)
    lam = _lam1(rng, imag, 0.3, 1.5)
    _check(w, rng, "generation exp_bspline m=3", _catalog("exp_bspline", m=3, lam=lam),
           _space([((0,), (lam,))]), "generation", 24, 0)
    lam = _lam1(rng, imag, 0.3, 1.5)
    _check(w, rng, "reproduction exp_bspline m=2 n=2",
           _catalog("exp_bspline", m=2, lam=lam, n_fold=2, tau=1.0),
           _space([((0,), (lam,)), ((1,), (lam,))]), "reproduction", 16, 0)
    lamv = _lam2(rng, imag, 0.2, 1.0)
    _check(w, rng, "reproduction butterfly", _catalog("butterfly", lam=lamv),
           _poly2d(lamv, 3), "reproduction", 6, 0)
    lamv = _lam2(rng, imag, 0.2, 1.0)
    _check(w, rng, "generation butterfly", _catalog("butterfly", lam=lamv),
           _poly2d(lamv, 3), "generation", 6, 0)
    lamv = _lam2(rng, imag, 0.2, 1.0)
    _check(w, rng, "reproduction shear normalized",
           _catalog("sheared_convolution", lam=lamv, normalized=True),
           _poly2d(lamv, 1), "reproduction", 16, 0)
    _check(w, rng, "reproduction sqrt3 approximating",
           _catalog("sqrt3", variant="approximating"), _poly2d(_ZERO2, 1),
           "reproduction", 16, 0)
    _check(w, rng, "generation sqrt3 interpolatory",
           _catalog("sqrt3", variant="interpolatory"), _poly2d(_ZERO2, 2),
           "generation", 16, 0)
    lamv = _lam2(rng, imag, 0.2, 1.0)
    _check(w, rng, "generation exp_box_spline", _catalog("exp_box_spline", n_dil=2, lam=lamv),
           _space([((0, 0), lamv)]), "generation", 16, 0)
    lam = _lam1(rng, imag, 0.3, 1.5)
    _solve(w, rng, "solve-tau dual4_binary", _catalog("dual4_binary", lam=lam),
           _conic(lam), (-0.5,))
    lam = _lam1(rng, imag, 0.3, 1.5)
    _solve(w, rng, "solve-tau dual4_ternary", _catalog("dual4_ternary", lam=lam),
           _conic(lam), (-0.25,))
    _solve(w, rng, "solve-tau sqrt3 interpolatory", _catalog("sqrt3", variant="interpolatory"),
           _poly2d(_ZERO2, 1), (0.0, 0.0))
    lamv = _lam2(rng, imag, 0.2, 1.0)
    _solve(w, rng, "solve-tau shear normalized",
           _catalog("sheared_convolution", lam=lamv, normalized=True), _poly2d(lamv, 1),
           (1.0, 1.0))
    # Expected negatives (exit 1).  Each fails for a structural reason that
    # holds at every level: a polynomial factor the scheme does not reproduce
    # at that tau, so a deep level range cannot turn it into a pass.
    lam = _lam1(rng, imag, 0.3, 1.5)
    _check(w, rng, "wrong tau dual4_binary", _catalog("dual4_binary", lam=lam),
           _conic(lam), "reproduction", 16, 1,
           tau=(-0.5 + rng.choice((-0.5, -0.25, 0.25, 0.5)),))
    lamv = _lam2(rng, imag, 0.2, 1.0)
    _check(w, rng, "wrong tau butterfly", _catalog("butterfly", lam=lamv),
           _poly2d(lamv, 3), "reproduction", 6, 1,
           tau=(rng.choice((-0.5, 0.5)), rng.choice((-0.5, 0.0, 0.5))))
    lamv = _lam2(rng, imag, 0.2, 1.0)
    _check(w, rng, "raw shear with gradients",
           _catalog("sheared_convolution", lam=lamv, normalized=False), _poly2d(lamv, 1),
           "reproduction", 16, 1)
    lamv = _lam2(rng, imag, 0.2, 1.0)
    # The raw and normalized shear masks differ by a scalar factor that tends
    # to 1 with the level, so this negative needs a probe level of at most 3.
    _solve(w, rng, "solve-tau raw shear with gradients",
           _catalog("sheared_convolution", lam=lamv, normalized=False), _poly2d(lamv, 1),
           None)
    _check(w, rng, "sqrt3 approximating with quadratics",
           _catalog("sqrt3", variant="approximating"), _poly2d(_ZERO2, 2),
           "reproduction", 16, 1)


# -- stepwise ---------------------------------------------------------------------

# (label, catalog id, frequency kind, extra parameters, space maker, window,
# kmin, kmax).  Eighteen of 24 ops per pass are 2-D; fourteen of them cost
# 0.3-0.65 s today, so op_p50_s and op_tail_s fall inside a cluster of ops
# of similar cost and do not jump between templates of very different cost
# from run to run (the six 1-D ops take under 0.01 s).  Window radii 3-6 and
# levels 0-3 are all covered; the level range is fixed per template, so every
# seed asks for the same work.
# Frequencies come from the ranges `verify` uses.  stepwise_test compares
# max_err to tol as an absolute error (a known defect: the documented rule is
# relative once the target exceeds 1), so the normalized shear at window 6,
# level 0, with a real frequency near (1, 1) fails on rounding alone: its
# samples reach about 2e6.  That op counts in fail_frac like any other.
_STEPWISE = [
    ("stepwise dual4_binary", "dual4_binary", 1, {}, _conic, 6, 0, 1),
    ("stepwise dual4_ternary", "dual4_ternary", 1, {}, _conic, 5, 1, 2),
    ("stepwise exp_bspline m=3", "exp_bspline", 1, {"m": 3},
     lambda l: _space([((0,), (l,))]), 6, 2, 3),
    ("stepwise butterfly r3", "butterfly", 2, {}, lambda l: _poly2d(l, 3), 3, 2, 2),
    ("stepwise butterfly r4", "butterfly", 2, {}, lambda l: _poly2d(l, 3), 4, 3, 3),
    ("stepwise exp_box_spline", "exp_box_spline", 2, {"n_dil": 2},
     lambda l: _space([((0, 0), l)]), 6, 0, 3),
    ("stepwise shear normalized", "sheared_convolution", 2, {"normalized": True},
     lambda l: _poly2d(l, 1), 6, 0, 1),
    ("stepwise shear normalized r5", "sheared_convolution", 2, {"normalized": True},
     lambda l: _poly2d(l, 1), 5, 1, 3),
    ("stepwise shear raw", "sheared_convolution", 2, {"normalized": False},
     lambda l: _space([((0, 0), l)]), 6, 0, 3),
    ("stepwise sqrt3 approximating", "sqrt3", 0, {"variant": "approximating"},
     lambda l: _poly2d(_ZERO2, 1), 6, 2, 3),
    ("stepwise sqrt3 approximating r5", "sqrt3", 0, {"variant": "approximating"},
     lambda l: _poly2d(_ZERO2, 1), 5, 0, 2),
    ("stepwise sqrt3 interpolatory", "sqrt3", 0, {"variant": "interpolatory"},
     lambda l: _poly2d(_ZERO2, 2), 6, 1, 1),
]


# Frequency magnitudes by frequency kind, as in `verify`: 1-D, 2-D.
_LAM_RANGE = {0: (0.0, 0.0), 1: (0.3, 1.5), 2: (0.2, 1.0)}


def _stepwise(w: _Writer, rng: random.Random, imag: bool) -> None:
    for label, entry, kind, extra, space, window, kmin, kmax in _STEPWISE:
        params = _catalog_params(rng, imag, kind, extra, *_LAM_RANGE[kind])
        report = w.out("report.json")
        w.add(
            label,
            ["check", "--scheme", w.file("scheme", _catalog(entry, **params)),
             "--space", w.file("space", space(params.get("lam"))), "--mode", "stepwise",
             "--window", str(window), "--kmin", str(kmin), "--kmax", str(kmax),
             "--report", report],
            expect_exit=0, report=report,
        )


_GENERATORS = {"refine_large": _refine_large, "verify": _verify, "stepwise": _stepwise}
WORKLOADS = tuple(_GENERATORS)


def generate(root, rel: str, workload: str, seed: int) -> list[dict]:
    """Write the inputs of (workload, seed) under root/rel; return the ops."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    w = _Writer(root, rel)
    rng = random.Random(f"{workload}:{seed}")
    for imag in (False, True):
        _GENERATORS[workload](w, rng, imag)
    manifest = {"workload": workload, "seed": seed, "ops": w.ops}
    (Path(root) / rel / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return w.ops
