"""In-memory span tracing around expsub's public functions.

`install(tracer)` rebinds each traced function in every `expsub` module that
binds it (for example both `expsub.engine.apply_operator` and
`expsub.checker.apply_operator`), so nested calls get their parents, and
wraps the hot leaf methods with counters charged to the innermost open span.
`uninstall` puts the originals back.  Nothing inside `src/` changes.

A span holds name, start, end, parent and op id; a span's self time is its
duration minus the part of it that its children cover.  `layer_metrics`
turns the spans of a run into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

# name of the span -> (module holding the original, attribute name)
_SPANNED = {
    "cli.main": ("expsub.cli", "main"),
    "engine.apply_operator": ("expsub.engine", "apply_operator"),
    "engine.refine": ("expsub.engine", "refine"),
    "engine.basic_limit_samples": ("expsub.engine", "basic_limit_samples"),
    "engine.valid_interior": ("expsub.engine", "valid_interior"),
    "engine.sample_exp_poly": ("expsub.engine", "sample_exp_poly"),
    "engine.grid_io": ("expsub.engine", ("grid_to_json_obj", "grid_from_json_obj",
                                         "grid_to_csv", "grid_from_csv")),
    "checker.check_generation": ("expsub.checker", "check_generation"),
    "checker.check_reproduction": ("expsub.checker", "check_reproduction"),
    "checker.solve_tau": ("expsub.checker", "solve_tau"),
    "checker.stepwise_test": ("expsub.checker", "stepwise_test"),
    "files.load_scheme": ("expsub.files", "load_scheme"),
    "files.load_space": ("expsub.files", "load_space"),
}

# counter name -> (module, class, method)
_COUNTED = {
    "lattice.solve_integer": ("expsub.lattice", "DilationMatrix", "solve_integer"),
    "lattice.coset_of": ("expsub.lattice", "DilationMatrix", "coset_of"),
    "lattice.inv_power": ("expsub.lattice", "DilationMatrix", "inv_power"),
    "symbols.weighted_derivative": ("expsub.symbols", "LaurentSymbol", "weighted_derivative"),
    "symbols.eval": ("expsub.symbols", "LaurentSymbol", "eval"),
}

SYMBOL_BUILD = "symbols.symbol_build"
LATTICE_SETUP = "lattice.setup"
CATALOG_FACTORY = "catalog.factory"


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    op: int | None = None
    counts: dict = dataclasses.field(default_factory=dict)
    attrs: dict = dataclasses.field(default_factory=dict)


class Tracer:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.loose: dict[str, int] = {}  # counts made with no span open

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.clock(), parent=parent, op=self.op))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was innermost")

    def count(self, name: str) -> None:
        bucket = self.spans[self.stack[-1]].counts if self.stack else self.loose
        bucket[name] = bucket.get(name, 0) + 1

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]].name if self.stack else None


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((sp.end - sp.start) - covered)
    return out


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(tracer.spans[idx], args, kwargs, result)
        return result

    return wrapped


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapped


def _operator_attrs(span, args, kwargs, result):
    mask, _, f = args[:3]
    span.attrs.update(s=f.s, f=len(f.values), mask=len(mask), out=len(result.values))


def _report_attrs(span, args, kwargs, result):
    span.attrs["conditions"] = len(result.records)


_AFTER = {
    "engine.apply_operator": _operator_attrs,
    "checker.check_generation": _report_attrs,
    "checker.check_reproduction": _report_attrs,
}


def install(tracer: Tracer) -> list:
    """Wrap the traced surface of the imported expsub; returns an undo list."""
    import expsub.catalog as catalog
    import expsub.lattice as lattice
    import expsub.symbols as symbols

    undo: list = []
    wrappers = {}  # id(original) -> (original, wrapper)
    for name, (modname, attrs) in _SPANNED.items():
        mod = sys.modules[modname]
        for attr in (attrs,) if isinstance(attrs, str) else attrs:
            original = getattr(mod, attr)
            wrappers[id(original)] = (original, _spanned(tracer, name, original, _AFTER.get(name)))
    # Rebind each original wherever an expsub module binds it.
    for modname, mod in list(sys.modules.items()):
        if modname != "expsub" and not modname.startswith("expsub."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))

    for name, (modname, cls_name, meth) in _COUNTED.items():
        cls = getattr(sys.modules[modname], cls_name)
        undo.append((cls, meth, getattr(cls, meth)))
        setattr(cls, meth, _counted(tracer, name, getattr(cls, meth)))

    for entry_id, entry in list(catalog.CATALOG.items()):
        undo.append((catalog.CATALOG, entry_id, entry))
        catalog.CATALOG[entry_id] = dataclasses.replace(
            entry, factory=_spanned(tracer, CATALOG_FACTORY, entry.factory)
        )

    dm_init = lattice.DilationMatrix.__init__
    undo.append((lattice.DilationMatrix, "__init__", dm_init))
    lattice.DilationMatrix.__init__ = _spanned(tracer, LATTICE_SETUP, dm_init)

    # A symbol build is a SchemeSpec cache miss, i.e. a call of its rule.
    # Specs derived with with_tau/scaled/shifted call their parent's symbol
    # inside their own rule; only the outermost build is a span.
    spec_init = symbols.SchemeSpec.__init__

    def traced_rule(rule):
        @functools.wraps(rule)
        def build(k):
            if tracer.innermost() == SYMBOL_BUILD:
                return rule(k)
            idx = tracer.begin(SYMBOL_BUILD)
            try:
                sym = rule(k)
            finally:
                tracer.end(idx)
            tracer.spans[idx].attrs["mask_terms"] = len(sym)
            return sym

        return build

    @functools.wraps(spec_init)
    def init(self, name, M, rule, *args, **kwargs):
        spec_init(self, name, M, traced_rule(rule), *args, **kwargs)

    undo.append((symbols.SchemeSpec, "__init__", spec_init))
    symbols.SchemeSpec.__init__ = init
    return undo


def uninstall(undo: list) -> None:
    for target, key, original in reversed(undo):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)


# -- per-layer metrics -------------------------------------------------------------

# metric name -> unit; every metric is emitted on every workload, 0 where the
# layer does not run.
LAYER_METRICS = {
    "engine.apply_operator.self_s": "s",
    "engine.apply_operator.calls": "count",
    "engine.points_out": "count",
    "engine.madds": "count",
    "engine.madds_per_s": "1/s",
    "engine.bytes_computed": "B",
    "engine.tap_hit_ratio": "ratio",
    "engine.basic_limit_samples.self_s": "s",
    "engine.refine.self_s": "s",
    "engine.valid_interior.self_s": "s",
    "engine.sample_exp_poly.self_s": "s",
    "engine.grid_io.self_s": "s",
    "lattice.setup_s": "s",
    "lattice.solve_integer.calls": "count",
    "lattice.coset_of.calls": "count",
    "lattice.inv_power.calls": "count",
    "symbols.symbol_build.s": "s",
    "symbols.symbol_build.count": "count",
    "symbols.mask_terms.mean": "count",
    "symbols.weighted_derivative.calls": "count",
    "symbols.eval.calls": "count",
    "checker.check_generation.self_s": "s",
    "checker.check_reproduction.self_s": "s",
    "checker.solve_tau.self_s": "s",
    "checker.stepwise_test.self_s": "s",
    "checker.conditions": "count",
    "checker.conditions_per_s": "1/s",
    "catalog.factory.s": "s",
    "files.load_scheme.s": "s",
    "files.load_space.s": "s",
    "cli.self_s": "s",
    "engine.apply_operator.share": "ratio",
    "engine.amdahl_cap": "x",
}


def _outermost(spans: list[Span], name: str) -> list[int]:
    """Spans called `name` that have no ancestor of the same name."""
    out = []
    for i, sp in enumerate(spans):
        p = sp.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if sp.name == name and p is None:
            out.append(i)
    return out


def layer_metrics(spans: list[Span], loose: dict, op_time_s: float, passes: int) -> dict:
    """Per-layer totals per pass over the op list, from the spans of a run.

    `op_time_s` is the summed wall time of the traced ops, used for the
    engine's share of op time and the Amdahl cap of an engine-only change.
    """
    selfs = self_times(spans)
    self_s: dict[str, float] = {}
    counts: dict[str, int] = dict(loose)
    for sp, st in zip(spans, selfs):
        self_s[sp.name] = self_s.get(sp.name, 0.0) + st
        for k, v in sp.counts.items():
            counts[k] = counts.get(k, 0) + v

    def incl(name):
        return sum(spans[i].end - spans[i].start for i in _outermost(spans, name))

    ops = [sp for sp in spans if sp.name == "engine.apply_operator"]
    madds = sum(sp.attrs["f"] * sp.attrs["mask"] for sp in ops)
    madds_2d = sum(sp.attrs["f"] * sp.attrs["mask"] for sp in ops if sp.attrs["s"] >= 2)
    solves_2d = sum(sp.counts.get("lattice.solve_integer", 0) for sp in ops if sp.attrs["s"] >= 2)
    builds = [spans[i] for i in _outermost(spans, SYMBOL_BUILD)]
    conditions = sum(
        sp.attrs["conditions"] for sp in spans if sp.name.startswith("checker.check_")
    )
    apply_s = self_s.get("engine.apply_operator", 0.0)
    check_s = self_s.get("checker.check_generation", 0.0) + self_s.get(
        "checker.check_reproduction", 0.0
    )
    share = apply_s / op_time_s if op_time_s > 0 else 0.0

    totals = {
        "engine.apply_operator.self_s": apply_s,
        "engine.apply_operator.calls": len(ops),
        "engine.points_out": sum(sp.attrs["out"] for sp in ops),
        "engine.madds": madds,
        "engine.bytes_computed": 16 * sum(
            sp.attrs["f"] + sp.attrs["mask"] + sp.attrs["out"] for sp in ops
        ),
        "engine.basic_limit_samples.self_s": self_s.get("engine.basic_limit_samples", 0.0),
        "engine.refine.self_s": self_s.get("engine.refine", 0.0),
        "engine.valid_interior.self_s": self_s.get("engine.valid_interior", 0.0),
        "engine.sample_exp_poly.self_s": self_s.get("engine.sample_exp_poly", 0.0),
        "engine.grid_io.self_s": self_s.get("engine.grid_io", 0.0),
        "lattice.setup_s": incl(LATTICE_SETUP),
        "lattice.solve_integer.calls": counts.get("lattice.solve_integer", 0),
        "lattice.coset_of.calls": counts.get("lattice.coset_of", 0),
        "lattice.inv_power.calls": counts.get("lattice.inv_power", 0),
        "symbols.symbol_build.s": incl(SYMBOL_BUILD),
        "symbols.symbol_build.count": len(builds),
        "symbols.weighted_derivative.calls": counts.get("symbols.weighted_derivative", 0),
        "symbols.eval.calls": counts.get("symbols.eval", 0),
        "checker.check_generation.self_s": self_s.get("checker.check_generation", 0.0),
        "checker.check_reproduction.self_s": self_s.get("checker.check_reproduction", 0.0),
        "checker.solve_tau.self_s": self_s.get("checker.solve_tau", 0.0),
        "checker.stepwise_test.self_s": self_s.get("checker.stepwise_test", 0.0),
        "checker.conditions": conditions,
        "catalog.factory.s": incl(CATALOG_FACTORY),
        "files.load_scheme.s": incl("files.load_scheme"),
        "files.load_space.s": incl("files.load_space"),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
    out = {k: v / passes for k, v in totals.items()}
    # Ratios are the same per pass and per run.
    out["engine.madds_per_s"] = madds / apply_s if apply_s > 0 else 0.0
    out["engine.tap_hit_ratio"] = madds_2d / solves_2d if solves_2d else 0.0
    out["symbols.mask_terms.mean"] = (
        sum(sp.attrs["mask_terms"] for sp in builds) / len(builds) if builds else 0.0
    )
    out["checker.conditions_per_s"] = conditions / check_s if check_s > 0 else 0.0
    out["engine.apply_operator.share"] = share
    out["engine.amdahl_cap"] = 1.0 / (1.0 - share) if share < 1.0 else 0.0
    return {k: out[k] for k in LAYER_METRICS}
