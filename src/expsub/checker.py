"""Algebraic reproduction and generation checks for subdivision schemes.

A scheme generates the space spanned by x^gamma exp(lambda . x) when all
derivatives D^gamma a^[k] vanish on the twisted points V'_k.  It reproduces
the space when additionally, for some real shift parameter tau,

    v^gamma D^gamma a^[k](v) = m * v^(M tau - tau) * q_gamma(M tau - tau)

at the points with the all-ones dual component.  Both sides are evaluated in
weighted falling-factorial form, which is equivalent to the plain-derivative
statement because the gamma set is kept downward closed.

Non-singularity of the scheme is an assumption of these characterizations;
reports carry it as a flag, it is never verified here.
"""

from __future__ import annotations

import cmath
from collections.abc import Sequence
from dataclasses import KW_ONLY, dataclass, field
from functools import cache, partial
from typing import ClassVar

import numpy as np

from .engine import _sampled_steps, exp_poly_values
from .lattice import _span, as_complex_vector, as_int, as_point, as_tau, displacement, param_array, q_eval, v_stack
from .symbols import ExpPolySpace, SchemeSpec, stacked_weighted_derivatives

__all__ = [
    "DEFAULT_TOL",
    "CheckError",
    "NoAdmissibleTauError",
    "BranchAmbiguityError",
    "NormalizationError",
    "ConditionRecord",
    "ConditionReport",
    "StepwiseRecord",
    "StepwiseReport",
    "check_generation",
    "check_reproduction",
    "solve_tau",
    "normalize",
    "stepwise_test",
    "stepwise_tests",
]

# Double precision with symbol sizes well below 1e3; relative residuals are
# used whenever |rhs| exceeds 1.
DEFAULT_TOL = 1e-9

# Levels per evaluator call in a condition check, and per engine pass in a
# stepwise range.  The work arrays grow with the block, so a long level
# range takes no more than a block's worth beside its records.
_LEVEL_BLOCK = 16


class CheckError(ValueError):
    """Invalid checker input."""


class NoAdmissibleTauError(CheckError):
    """No real shift parameter satisfies the reproduction conditions."""


class BranchAmbiguityError(CheckError):
    """Logarithm branch is ambiguous at the probe level; increase k_probe."""


class NormalizationError(CheckError):
    """Symbol vanishes at the normalization anchor."""


@dataclass(frozen=True)
class ConditionRecord:
    kind: str
    k: int
    gamma: tuple[int, ...]
    lam: tuple[complex, ...]
    eps: tuple[complex, ...]
    v: tuple[complex, ...]
    lhs: complex
    rhs: complex
    residual: float

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "gamma": list(self.gamma),
            "lambda": [[z.real, z.imag] for z in self.lam],
            "eps": [[z.real, z.imag] for z in self.eps],
            "v": [[z.real, z.imag] for z in self.v],
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "residual": self.residual,
        }


class ConditionRecords(Sequence):
    """A report's records: `len()` builds none; the first index or iteration
    builds them all, once, with `rows`, which maps flat indices to records."""

    def __init__(self, size: int, rows):
        self._size, self.rows, self._built = size, rows, None

    def __len__(self):
        return self._size

    def __getitem__(self, i):
        if self._built is None:
            self._built = tuple(self.rows(np.arange(self._size)))
        return self._built[i]


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """One check's conditions as columns: the `levels`, the condition order
    `(i, gamma, j)` of every level (frequency `lams[i]`, dual point `eps[j]`),
    the `v_stack` points `v`, and read-only (level, condition) arrays `lhs`,
    `rhs` and `residual`, from which `records` are built on demand."""

    nonsingularity_assumed: ClassVar[bool] = True
    mode: str
    scheme: str
    tol: float
    tau: tuple[float, ...] | None
    _: KW_ONLY
    levels: tuple[int, ...]
    order: tuple[tuple[int, tuple[int, ...], int], ...]
    lams: tuple[tuple[complex, ...], ...]
    eps: tuple[tuple[complex, ...], ...]
    v: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray = field(init=False)
    records: Sequence[ConditionRecord] = field(init=False)

    def __post_init__(self):
        residual = _residuals(self.lhs, self.rhs)
        for a in (self.v, self.lhs, self.rhs, residual):
            a.flags.writeable = False
        cols = (self.mode, self.levels, self.order, self.lams, self.eps, self.v, self.lhs, self.rhs, residual)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "records", ConditionRecords(residual.size, partial(_records, *cols)))

    @property
    def max_residual(self) -> float:
        """Largest residual; NaN when any residual is NaN."""
        return _nan_max(self.residual)

    @property
    def verdict(self) -> bool:
        return bool((self.residual <= self.tol).all())

    def failures(self) -> list[ConditionRecord]:
        """The records that fail the verdict's test, NaN residuals included."""
        return [r for r in self.records if not r.residual <= self.tol]

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode,
            "scheme": self.scheme,
            "tol": self.tol,
            "tau": None if self.tau is None else list(self.tau),
            "verdict": "pass" if self.verdict else "fail",
            "max_residual": self.max_residual,
            "nonsingularity_assumed": self.nonsingularity_assumed,
            "records": [r.to_json_obj() for r in self.records],
        }

    def table(self, max_rows: int = 40) -> str:
        lines = [
            f"{self.mode} check for {self.scheme}"
            + (f", tau={tuple(self.tau)}" if self.tau is not None else ""),
            f"{'k':>3} {'gamma':>10} {'lambda':>24} {'eps':>20} {'residual':>12} status",
        ]
        residual = self.residual.reshape(-1)
        clipped = max(residual.size - max_rows, 0)
        idx = np.arange(residual.size)
        if clipped:
            # Rank by the printed residual, ties in record order (a stable
            # sort), so a last-bit change never swaps rows of equal printed
            # value; NaN residuals sort first, so a NaN record is never clipped.
            printed = np.array(("%.3e " * residual.size % tuple(residual.tolist())).split(), dtype=float)
            nan = np.isnan(printed)
            idx = np.lexsort((np.where(nan, 0.0, -printed), ~nan))[:max_rows]
        shown = self.records.rows(idx)
        if clipped:
            shown.sort(key=lambda r: (r.k, tuple((z.real, z.imag) for z in r.lam), r.gamma))
        fmt = cache(lambda zs: ",".join(_fmt_c(z) for z in zs))
        for r in shown:
            ok = "ok" if r.residual <= self.tol else "FAIL"
            lines.append(
                f"{r.k:>3} {str(r.gamma):>10} {fmt(r.lam):>24} {fmt(r.eps):>20} {r.residual:>12.3e} {ok}"
            )
        if clipped:
            lines.append(f"... {clipped} more record(s) not shown")
        lines.append(
            f"verdict: {'pass' if self.verdict else 'fail'}"
            f" (max residual {self.max_residual:.3e}, tol {self.tol:.1e},"
            f" non-singularity assumed)"
        )
        return "\n".join(lines)


def _records(mode, levels, order, lams, eps, v, lhs, rhs, residual, idx) -> list[ConditionRecord]:
    """The records of a column report at flat indices `idx`."""
    level, col = np.divmod(idx, len(order))
    conds = [order[c] for c in col.tolist()]
    points = v[level, [i for i, _, _ in conds], [j for _, _, j in conds]].tolist()
    values = (a.reshape(-1)[idx].tolist() for a in (lhs, rhs, residual))
    return [
        ConditionRecord(mode, levels[l], gamma, lams[i], eps[j], tuple(pt), *fields)
        for l, (i, gamma, j), pt, *fields in zip(level.tolist(), conds, points, *values)
    ]


def _fmt_c(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.4g}"
    return f"{z.real:.3g}{z.imag:+.3g}i"


def _levels(k_range) -> list[int]:
    span = _span(k_range, "level")
    ks = as_point(k_range, what="level") if span is None else range(span[0], span[1] + 1)
    if not ks or any(k < 0 for k in ks):
        raise CheckError("level range must be nonempty with nonnegative levels")
    return sorted(set(ks))


def _check_inputs(scheme: SchemeSpec, space: ExpPolySpace, tol) -> None:
    """Reject a NaN, infinite or negative tolerance (it decides every verdict in advance)
    and a space whose dimension is not the scheme's."""
    if not (np.isfinite(tol) and tol >= 0):
        raise CheckError(f"tolerance must be finite and nonnegative, got {tol!r}")
    if space.s != scheme.M.s:
        raise CheckError("space dimension does not match the scheme")


def _nan_max(values) -> float:
    return float(np.max(values)) if np.size(values) else 0.0


def _residuals(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """|lhs - rhs|, divided by |rhs| where |rhs| exceeds 1, elementwise; np.hypot
    of the parts has the bits of Python's complex abs (numpy's may differ)."""
    err = np.hypot(lhs.real - rhs.real, lhs.imag - rhs.imag)
    scale = np.hypot(rhs.real, rhs.imag)
    return np.divide(err, scale, out=err, where=scale > 1.0)


def _evaluation(scheme: SchemeSpec, space: ExpPolySpace, k_range, ones: bool):
    """The one evaluation of the conditions over V_k (V'_k without `ones`, the all-ones point)
    for every level of the range at once: (levels, order, lams, w, v, lhs), one level's
    conditions `(i, gamma, j)` (frequency `lams[i]`, dual point j, the all-ones point first),
    the `v_stack` exponents and points, and the (level, condition) left-hand sides."""
    M = scheme.M
    levels = _levels(k_range)
    lams = space.lambdas()
    gammas = sorted({g for g, _ in space.pairs})
    order = [
        (i, gamma, j)
        for i, lam in enumerate(lams)
        for gamma in space.gammas_for(lam)
        for j in range(M.m)
        if ones or j
    ]
    w, v = v_stack(M, lams, levels)
    lhs = np.empty((len(levels), len(order)), dtype=complex)
    rows = [gammas.index(gamma) for _, gamma, _ in order]
    cols = [i * M.m + j for i, _, j in order]
    for start in range(0, len(levels), _LEVEL_BLOCK):
        # One evaluation per block: a row per gamma, a column per point of V_k.
        block = slice(start, start + _LEVEL_BLOCK)
        syms = [scheme.symbol(k) for k in levels[block]]
        values = stacked_weighted_derivatives(syms, gammas, v[block].reshape(len(syms), -1, M.s))
        lhs[block] = values[:, rows, cols]
    return levels, order, lams, w, v, lhs


def _report(mode: str, scheme: SchemeSpec, tol: float, t, levels, order, lams, w, v, lhs) -> ConditionReport:
    """The report of an `_evaluation` for the shift `t`: every right-hand side is zero except
    m v^(M tau - tau) q_gamma(M tau - tau) at the all-ones point, evaluated only for a shift."""
    M = scheme.M
    rhs = np.zeros_like(lhs)
    if t is not None:
        x, v_x = displacement(M, t, w)
        ones = [(r, i, gamma) for r, (i, gamma, j) in enumerate(order) if not j]
        q = {gamma: q_eval(gamma, x) for _, _, gamma in ones}
        at = [r for r, _, _ in ones]
        for row, vl in zip(rhs, v_x.tolist()):
            row[at] = [M.m * vl[i] * q[gamma] for _, i, gamma in ones]
    return ConditionReport(
        mode, scheme.name, tol, t, levels=tuple(levels), order=tuple(order),
        lams=tuple(lams), eps=tuple(M.dual_points()), v=v, lhs=lhs, rhs=rhs,
    )


def check_generation(scheme: SchemeSpec, space: ExpPolySpace, k_range, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Zero conditions: D^gamma a^[k] vanishes on V'_k for every pair in the space."""
    _check_inputs(scheme, space, tol)
    return _report("generation", scheme, tol, None, *_evaluation(scheme, space, k_range, False))


def check_reproduction(scheme: SchemeSpec, space: ExpPolySpace, tau, k_range, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Shifted reproduction conditions at every dual point.

    At the all-ones point the required value is m v^(M tau - tau)
    q_gamma(M tau - tau); elsewhere it is zero.
    """
    _check_inputs(scheme, space, tol)
    t = None if tau is None else as_tau(tau, scheme.M.s)
    return _report("reproduction", scheme, tol, t, *_evaluation(scheme, space, k_range, t is not None))


def _displacement_probe(M, order, lams, w, lhs, k: int, tol: float) -> np.ndarray:
    """Estimate x = M tau - tau from level k's rows `w` and `lhs` of an all-ones `_evaluation`.

    Polynomial route: with lambda = 0 and all first-order gammas available,
    x_l = D^(e_l) a(1) / m (requires a(1) = m).  Exponential route: from the
    gamma = 0 condition a(v) = m v^x, via first-derivative ratios when the
    space holds first-order gammas for a nonzero lambda, otherwise from
    principal logarithms of a(v)/m stacked over the available frequencies.
    """
    s = M.s
    zero = (0,) * s  # the zero frequency, and gamma = 0
    units = [tuple(int(i == j) for i in range(s)) for j in range(s)]
    # v^gamma D^gamma a(v) at the all-ones point v of V_k, by (frequency, gamma)
    at_one = {(lams[i], gamma): value for (i, gamma, j), value in zip(order, lhs.tolist()) if not j}
    poly = all((zero, u) in at_one for u in units)
    probe = [zero] if poly else [lam for lam in lams if all(z != 0 for z in lam)]
    if not probe:
        raise CheckError(
            "solve_tau needs lambda = 0 with all first-order gammas, "
            "or a lambda with every component nonzero"
        )
    for lam in probe:
        if all((lam, u) in at_one for u in units):
            av, *grad = (at_one[lam, gamma] for gamma in [zero] + units)
            if poly and abs(av - M.m) > tol * M.m:
                raise NoAdmissibleTauError(
                    f"a(1) = {av:.12g} differs from m = {M.m}; polynomial route needs a(1) = m"
                )
            if abs(av) < 1e-14:
                raise NoAdmissibleTauError(f"a(v) vanishes at the probe point, level {k}")
            return np.array([d / (M.m if poly else av) for d in grad], dtype=complex)

    rows = w[[lams.index(lam) for lam in probe]]
    for lam, w_one in zip(probe, rows):
        if np.max(np.abs(w_one)) >= cmath.pi:
            raise BranchAmbiguityError(
                f"|lambda^T M^-(k+1)| reaches pi at probe level {k}; increase k_probe"
            )
        if abs(at_one[lam, zero]) < 1e-14:
            raise NoAdmissibleTauError(f"a(v) vanishes at the probe point, level {k}")
    rhs = [-cmath.log(at_one[lam, zero] / M.m) for lam in probe]
    A = np.vstack([rows.real, rows.imag])
    b = np.concatenate([np.real(rhs), np.imag(rhs)])
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    return x.astype(complex)


def solve_tau(scheme: SchemeSpec, space: ExpPolySpace, k_probe: int = 0, tol: float = DEFAULT_TOL) -> tuple[float, ...]:
    """Solve for the shift parameter tau, probing two consecutive levels.

    The displacement x = M tau - tau is estimated at k_probe and k_probe + 1
    from one evaluation of both levels; the two estimates must agree, tau =
    (M - I)^{-1} x must be real, and its conditions must hold in that evaluation.
    """
    _check_inputs(scheme, space, tol)
    k_probe = as_int(k_probe, "probe level")
    if k_probe < 0:
        raise CheckError("probe level must be nonnegative")
    M = scheme.M
    levels, order, lams, w, _, lhs = evaluation = _evaluation(scheme, space, (k_probe, k_probe + 1), True)
    xs = [_displacement_probe(M, order, lams, w[l], lhs[l], k, tol) for l, k in enumerate(levels)]
    if np.max(np.abs(xs[0] - xs[1])) > max(tol, 1e-12):
        raise NoAdmissibleTauError(
            "no admissible tau: displacement estimates disagree across probe levels"
        )
    x = xs[0]
    if np.max(np.abs(np.imag(x))) > max(tol, 1e-12):
        raise NoAdmissibleTauError("no admissible tau: shift parameter is not real")
    A = np.array(M.mat, dtype=float) - np.eye(M.s)
    tau = tuple(float(v) for v in np.linalg.solve(A, np.real(x)))
    report = _report("reproduction", scheme, tol, tau, *evaluation)
    if not report.verdict:
        raise NoAdmissibleTauError(
            f"no admissible tau: candidate {tau} leaves residual {report.max_residual:.3e}"
        )
    return tau


def normalize(scheme: SchemeSpec, anchor_lambda, tau) -> SchemeSpec:
    """Rescale each level so the gamma = 0 condition holds at the anchor.

    K^[k] = m v^(M tau - tau) / a^[k](v) with v built from anchor_lambda at
    the all-ones dual point.  Raises when some a^[k](v) vanishes.
    """
    M = scheme.M
    lam = as_complex_vector(anchor_lambda, M.s)
    t = as_tau(tau, M.s)

    def factor(k: int) -> complex:
        w, v = v_stack(M, [lam], [k])  # the all-ones point comes first
        av = scheme.symbol(k).eval(v[0, 0, 0])
        if av == 0:
            raise NormalizationError(
                f"symbol at level {k} vanishes at the normalization anchor"
            )
        return M.m * displacement(M, t, w[0, 0])[1] / av

    return scheme.scaled(factor, suffix="normalized", tau=t)


@dataclass(frozen=True)
class StepwiseRecord:
    gamma: tuple[int, ...]
    lam: tuple[complex, ...]
    max_err: float
    points: int

    def to_json_obj(self) -> dict:
        return {
            "gamma": list(self.gamma),
            "lambda": [[z.real, z.imag] for z in self.lam],
            "max_err": self.max_err,
            "points": self.points,
        }


@dataclass(frozen=True)
class StepwiseReport:
    scheme: str
    k: int
    tol: float
    tau: tuple[float, ...]
    records: tuple[StepwiseRecord, ...] = ()

    @property
    def max_err(self) -> float:
        """Largest error; NaN when any error is NaN."""
        return _nan_max([r.max_err for r in self.records])

    @property
    def verdict(self) -> bool:
        return all(r.max_err <= self.tol for r in self.records)

    def to_json_obj(self) -> dict:
        return {
            "mode": "stepwise",
            "scheme": self.scheme,
            "k": self.k,
            "tau": list(self.tau),
            "tol": self.tol,
            "verdict": "pass" if self.verdict else "fail",
            "max_err": self.max_err,
            "records": [r.to_json_obj() for r in self.records],
        }

    def table(self) -> str:
        lines = [
            f"stepwise check for {self.scheme} at level {self.k}, tau={tuple(self.tau)}",
            f"{'gamma':>10} {'lambda':>24} {'points':>7} {'max err':>12} status",
        ]
        for r in self.records:
            lam = ",".join(_fmt_c(z) for z in r.lam)
            ok = "ok" if r.max_err <= self.tol else "FAIL"
            lines.append(f"{str(r.gamma):>10} {lam:>24} {r.points:>7} {r.max_err:>12.3e} {ok}")
        lines.append(
            f"verdict: {'pass' if self.verdict else 'fail'} (max err {self.max_err:.3e}, tol {self.tol:.1e})"
        )
        return "\n".join(lines)


def stepwise_test(scheme: SchemeSpec, space: ExpPolySpace, tau, k: int, window, tol: float = DEFAULT_TOL) -> StepwiseReport:
    """One refinement step on exact samples versus next-level exact samples.

    Each basis function of the space is sampled on the window at level k,
    refined once with a^[k], and compared on the valid interior against its
    own samples at level k + 1.  Errors follow the condition residual rule:
    relative where the exact sample exceeds 1 in modulus, else absolute.
    """
    return next(stepwise_tests(scheme, space, tau, [k], window, tol))


def stepwise_tests(scheme: SchemeSpec, space: ExpPolySpace, tau, levels, window, tol: float = DEFAULT_TOL):
    """`stepwise_test` at each level of `levels`, read as a check's level range, in increasing
    order, from one engine pass per taps layout and one evaluator call per sample set for each
    block of `_LEVEL_BLOCK` levels; a failing level raises after the reports of those before it."""
    _check_inputs(scheme, space, tol)
    M = scheme.M
    t = as_tau(tau, M.s)
    levels = _levels(levels)
    for start in range(0, len(levels), _LEVEL_BLOCK):
        block = levels[start : start + _LEVEL_BLOCK]
        steps, error = _sampled_steps(map(scheme.symbol, block), M, space.pairs, t, block, window)
        if steps:
            got = np.concatenate([values for _, values in steps], axis=1)
            exact = exp_poly_values(space.pairs, np.concatenate([param_array(M, t, k + 1, v) for k, (v, _) in zip(block, steps)]))
            starts = np.cumsum([0] + [len(v) for v, _ in steps[:-1]])
            errs = np.maximum.reduceat(_residuals(got, exact), starts, axis=1)  # keeps a NaN, as np.max does
            for k, (valid, _), row in zip(block, steps, errs.T.tolist()):
                records = tuple(StepwiseRecord(g, lam, err, len(valid)) for (g, lam), err in zip(space.pairs, row))
                yield StepwiseReport(scheme=scheme.name, k=k, tol=tol, tau=t, records=records)
        if error is not None:
            raise error
