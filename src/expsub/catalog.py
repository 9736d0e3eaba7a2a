"""Parametric constructors for the built-in scheme families.

Each constructor returns a SchemeSpec whose documented shift parameter and
reproduction space are attached as metadata, and builds each level's mask
once.  A dual four-point level where a denominator factor of the coefficient
formulas falls below 1e-12 in modulus raises CatalogParameterError.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable

from .lattice import (
    MAX_BOX_POINTS, DilationMatrix, LatticeError, as_complex_vector, as_int, as_tau, displacement, level_exponents,
)
from .symbols import ExpPolySpace, LaurentSymbol, SchemeSpec, _convolve

__all__ = [
    "CatalogParameterError",
    "CatalogEntry",
    "CATALOG",
    "exp_bspline",
    "exp_product",
    "exp_box_spline",
    "dual4_binary",
    "dual4_binary_limit_mask",
    "dual4_ternary",
    "dual4_ternary_limit_mask",
    "butterfly",
    "sheared_convolution",
    "SHEAR_DIGITS",
    "sqrt3_schemes",
]

class CatalogParameterError(ValueError):
    """Scheme parameters outside the supported domain."""


def _read(read, *args):
    """`read(*args)` for a `lattice` reader (`as_int`: 2.0 reads as 2, while 2.5, a bool or a
    string raise), its LatticeError raised as CatalogParameterError."""
    try:
        return read(*args)
    except LatticeError as exc:
        raise CatalogParameterError(str(exc)) from None


def _axis_lambda(lam, s: int, allow_zero=True) -> tuple[complex, ...]:
    """A frequency vector restricted to R^s or i R^s (one branch for the whole vector)."""
    v = _read(as_complex_vector, lam, s)
    real = all(z.imag == 0 for z in v)
    imag = all(z.real == 0 for z in v)
    if not (real or imag):
        raise CatalogParameterError(f"lambda must lie in R^{s} or in i R^{s}")
    if not allow_zero and all(z == 0 for z in v):
        raise CatalogParameterError("lambda must be nonzero")
    return v


def _family(name: str, M: DilationMatrix, lams, taps, tau, space) -> SchemeSpec:
    """A family whose level-k mask is taps(x) {exponent: coefficient}, x the level exponents
    lambda^T M^-(k+1) of each of `lams`; a CatalogParameterError from taps gains the level."""

    def mask_at(k: int) -> LaurentSymbol:
        try:
            terms = taps(level_exponents(M, lams, [k])[0].tolist())
        except CatalogParameterError as exc:
            raise CatalogParameterError(f"{exc} at level {k}") from None
        return LaurentSymbol(M.s, terms)

    return SchemeSpec(name, M, mask_at, tau=tau, space=space)


def _check_size(m: int, ns, what: str) -> None:
    """Reject a 1-D `_geometric_product` of m-term sums to the powers `ns` that has more
    than MAX_BOX_POINTS taps or forms more than MAX_BOX_POINTS coefficient products,
    naming what asks for it."""
    if (m - 1) * sum(ns) + 1 > MAX_BOX_POINTS:
        raise CatalogParameterError(f"{what} would make a mask of more than {MAX_BOX_POINTS} taps")
    products, taps = 0, 1  # the powers' products, then each power's with the product so far
    for i, n in enumerate(ns):
        products += m * (n + (m - 1) * n * (n - 1) // 2) + (taps * ((m - 1) * n + 1) if i else 0)
        taps += (m - 1) * n
    if products > MAX_BOX_POINTS:
        raise CatalogParameterError(f"{what} would form more than {MAX_BOX_POINTS} coefficient products")


def _geometric_product(m: int, factors, s: int) -> dict:
    """prod_i (1 + r_i z_a + ... + r_i^(m-1) z_a^(m-1))^(n_i), a = a_i, over (a_i, r_i, n_i) in
    `factors`, as {exponent: coefficient} in the arithmetic of the r_i: each power is built
    from 1, then the powers are multiplied from the first factor on."""
    out = None
    for axis, r, n in factors:
        g = {tuple(e * (j == axis) for j in range(s)): r**e for e in range(m)}
        power = {(0,) * s: 1}
        for _ in range(n):
            power = _convolve(power, g)
        out = power if out is None else _convolve(out, power)
    return out


def _scale(terms: dict, K) -> dict:
    return {e: c * K for e, c in terms.items()}


# -- exponential B-splines -----------------------------------------------------


def exp_bspline(m: int, lam, n_fold: int = 1, tau=None) -> SchemeSpec:
    """m-ary exponential B-spline scheme (1 + r_k z + ... + r_k^{m-1} z^{m-1})^n.

    With `tau` given, each level is scaled by K^[k] = m^(1-n) r_k^(-(m-1) tau)
    so the exponential anchor condition holds for that shift.  Without it the
    raw product is returned: for n_fold = 1 it reproduces exp(lambda x) with
    shift 0; for n_fold >= 2 it only generates exp(lambda x) and carries no
    shift.  The two-dimensional space {exp, x exp} is reached exactly when
    tau equals n_fold / 2.
    """
    m, n_fold = _read(as_int, m, "arity m"), _read(as_int, n_fold, "n_fold")
    if m < 2:
        raise CatalogParameterError("arity m must be at least 2")
    if n_fold < 1:
        raise CatalogParameterError("n_fold must be at least 1")
    M = _read(DilationMatrix, m)
    _check_size(m, [n_fold], "n_fold")
    lamc = _read(as_complex_vector, lam, 1)[0]
    t = None if tau is None else _read(as_tau, tau, 1)[0]

    def taps(x):
        z = x[0][0]
        mask = _geometric_product(m, [(0, cmath.exp(z), n_fold)], 1)
        if t is None:
            return mask
        return _scale(mask, float(m) ** (1 - n_fold) * cmath.exp(-z * (m - 1) * t))

    doc_tau = (t,) if t is not None else (0.0,) if n_fold == 1 else None
    pairs = [((0,), (lamc,))]
    if n_fold >= 2 and t is not None and t == n_fold / 2:
        pairs.append(((1,), (lamc,)))
    name = f"exp_bspline(m={m},n={n_fold})"
    return _family(name, M, [(lamc,)], taps, doc_tau, ExpPolySpace(pairs))


def exp_product(m: int, factors, normalization=None) -> SchemeSpec:
    """Product of geometric-sum factors, one per (lambda_i, multiplicity n_i).

    normalization: None leaves the raw product; "two_factor" applies the
    K^[k] = m^(1-n) (sum_e r_k^(m-1-e) s_k^e)^(-n) scaling that pairs with
    shift parameter n for two distinct factors of equal multiplicity.
    """
    m = _read(as_int, m, "arity m")
    if m < 2:
        raise CatalogParameterError("arity m must be at least 2")
    if not isinstance(factors, (list, tuple)) or not factors:
        raise CatalogParameterError(f"need at least one factor in a list of (lambda, n) pairs, got {factors!r}")
    facs = []
    for i, f in enumerate(factors):
        n = _read(as_int, f[1], "multiplicity") if isinstance(f, (list, tuple)) and len(f) == 2 else 0
        if n < 1:
            raise CatalogParameterError(f"factors[{i}] must be a (lambda, n) pair with n >= 1, got {f!r}")
        facs.append((_read(as_complex_vector, f[0], 1)[0], n))
    M = _read(DilationMatrix, m)
    _check_size(m, [n for _, n in facs], "the multiplicities")
    doc_tau = space = None
    if normalization == "two_factor":
        if len(facs) != 2 or facs[0][1] != facs[1][1]:
            raise CatalogParameterError(
                "two_factor normalization needs exactly two factors of equal multiplicity"
            )
        (la, n), (mu, _) = facs
        doc_tau = (float(n),)
        space = ExpPolySpace([((0,), (la,)), ((0,), (mu,))])
    elif normalization is not None:
        raise CatalogParameterError(f"unknown normalization {normalization!r}")

    def taps(x):
        rs = [cmath.exp(z) for (z,) in x]
        mask = _geometric_product(m, [(0, r, n) for r, (_, n) in zip(rs, facs)], 1)
        if normalization is None:
            return mask
        (r, s), n = rs, facs[0][1]
        return _scale(mask, float(m) ** (1 - n) * sum(r ** (m - 1 - e) * s**e for e in range(m)) ** (-n))

    name = f"exp_product(m={m},factors={len(facs)})"
    return _family(name, M, [(la,) for la, _ in facs], taps, doc_tau, space)


def exp_box_spline(n_dil: int, lam) -> SchemeSpec:
    """Tensor digit-set scheme for M = n I with mask sum_(e in E) r_k^e z^e.

    Its basic limit function is exp(lambda . x) on the unit box; the raw mask
    reproduces the pure exponential with shift 0.  The mask is one geometric
    sum per axis, multiplied together.
    """
    n_dil = _read(as_int, n_dil, "dilation factor")
    if n_dil < 2:
        raise CatalogParameterError("dilation factor must be at least 2")
    lamv = _read(as_complex_vector, lam)
    if not lamv:
        raise CatalogParameterError("lambda must have at least one entry")
    s = len(lamv)

    def taps(x):
        return _geometric_product(n_dil, [(j, cmath.exp(z), 1) for j, z in enumerate(x[0])], s)

    M = DilationMatrix([[n_dil * int(i == j) for j in range(s)] for i in range(s)])
    name = f"exp_box_spline(n={n_dil},s={s})"
    return _family(name, M, [lamv], taps, (0.0,) * s, ExpPolySpace([((0,) * s, lamv)]))


# -- dual four-point schemes ---------------------------------------------------


def _dual4(name: str, m: int, lam, tau: float, guards, taps) -> SchemeSpec:
    """The m-ary dual four-point family: level k's mask is taps(w),
    w = cosh(lambda m^-(k+1) / 2), once no factor in guards(w) vanishes."""
    lamc = _axis_lambda(lam, 1, allow_zero=False)[0]

    def level_taps(x):
        h = x[0][0] / 2
        w = (cmath.exp(h) + cmath.exp(-h)) / 2
        for factor, value in guards(w).items():
            if abs(value) < 1e-12:
                raise CatalogParameterError(f"{name}: denominator factor {factor} vanishes")
        return taps(w)

    space = ExpPolySpace([((0,), (0,)), ((1,), (0,)), ((0,), (lamc,)), ((0,), (-lamc,))])
    return _family(name, DilationMatrix(m), [(lamc,)], level_taps, (tau,), space)


def _dual4_binary_taps(w):
    """The eight binary taps in w, as {exponent: coefficient} from z^-4 on."""
    den = 64 * w**3 * (2 * w**2 - 1) * (w + 1)
    c0 = -(6 * w**2 + 2 * w - 1) / den
    c1 = (10 * w**2 + 2 * w - 3) / den + 0.75
    c2 = (-2 * w**2 + 2 * w + 3) / den + 0.25
    c3 = -(2 * w**2 + 2 * w + 1) / den
    return {(e,): c for e, c in enumerate([c3, c0, c2, c1, c1, c2, c0, c3], -4)}


def dual4_binary(lam) -> SchemeSpec:
    """Binary dual four-point scheme reproducing span{1, x, e^(lx), e^(-lx)}.

    Eight taps anchored at z^-4 .. z^3, shift parameter -1/2, from closed-form
    coefficients in w = cosh(lambda 2^-(k+1) / 2); a level where w, 2w^2 - 1
    or w + 1 is below 1e-12 in modulus raises CatalogParameterError.
    """
    return _dual4(
        "dual4_binary", 2, lam, -0.5,
        lambda w: {"w": w, "2w^2-1": 2 * w**2 - 1, "w+1": w + 1},
        _dual4_binary_taps,
    )


def dual4_binary_limit_mask() -> LaurentSymbol:
    """Stationary limit of the binary dual four-point masks: the taps at w = 1,
    the limit of w as k grows; each is a dyadic rational, exact in floats."""
    return LaurentSymbol(1, _dual4_binary_taps(1.0))


def _dual4_ternary_taps(w):
    """The twelve ternary taps in w, as {exponent: coefficient} from z^-6 on."""
    d1 = 8 * w * (2 * w - 1) ** 2 * (4 * w**2 - 3) * (w + 1)
    c02 = -1 / d1
    c12 = 1 / d1 + 0.5
    c22 = 1 / d1 + 0.5
    c32 = -1 / d1
    d2 = 24 * w * (4 * w**2 - 1) ** 3 * (-4 * w**3 - 4 * w**2 + 3 * w + 3)
    d3 = 8 * w * (2 * w - 1) ** 3 * (2 * w + 1) ** 3 * (4 * w**2 - 3) * (w + 1)
    c03 = (16 * w**4 + 16 * w**3 + 3) / d2
    c13 = -(16 * w**4 - 16 * w**2 - 4 * w - 1) / d3 + 1 / 6
    c23 = (48 * w**4 + 16 * w**3 - 32 * w**2 - 8 * w + 1) / d3 + 5 / 6
    c33 = (80 * w**4 + 32 * w**3 - 48 * w**2 - 12 * w + 3) / d2
    c31, c21, c11, c01 = c03, c13, c23, c33
    return {(e,): c for e, c in enumerate([c03, c02, c01, c13, c12, c11, c23, c22, c21, c33, c32, c31], -6)}


def dual4_ternary(lam) -> SchemeSpec:
    """Ternary dual four-point scheme, twelve taps at z^-6 .. z^5, shift -1/4."""
    return _dual4(
        "dual4_ternary", 3, lam, -0.25,
        lambda w: {"w": w, "2w-1": 2 * w - 1, "2w+1": 2 * w + 1,
                   "4w^2-3": 4 * w**2 - 3, "w+1": w + 1},
        _dual4_ternary_taps,
    )


def dual4_ternary_limit_mask() -> LaurentSymbol:
    """Stationary limit of the ternary dual four-point masks: the taps at w = 1."""
    return LaurentSymbol(1, _dual4_ternary_taps(1.0))


# -- butterfly -----------------------------------------------------------------


@cache
def _butterfly_coeffs() -> LaurentSymbol:
    """Centered interpolatory butterfly combination in u = r1 z1, w = r2 z2.

    The three-directional factors are expanded and recentered by (u w)^-3,
    which leaves the even-even part exactly delta, so substituting numeric r
    keeps the scheme exactly interpolatory at every level.  Every coefficient
    is a dyadic rational with a small numerator, so the float arithmetic is
    exact.
    """
    fu, fw, fuw = (LaurentSymbol(2, {(0, 0): 0.5, e: 0.5}) for e in ((1, 0), (0, 1), (1, 1)))
    combo = LaurentSymbol.zero(2)
    for prefactor, weight, (j, h, ell) in (
        ((1, 1), 7, (2, 2, 2)),
        ((1, 0), -2, (1, 3, 3)),
        ((0, 1), -2, (3, 1, 3)),
        ((1, 1), -2, (3, 3, 1)),
    ):
        combo = combo + (fu**j * fw**h * fuw**ell).shift(prefactor) * (4 * weight)
    return combo.shift((-3, -3))


def butterfly(lam) -> SchemeSpec:
    """Interpolatory butterfly scheme for M = 2I, centered on [-3, 3]^2.

    Generates and reproduces span{x^gamma exp(lambda . x) : |gamma| < 4} with
    shift parameter (0, 0).
    """
    lamv = _axis_lambda(lam, 2)

    def taps(x):
        r1, r2 = (cmath.exp(z) for z in x[0])
        return {e: c.real * r1 ** e[0] * r2 ** e[1] for e, c in _butterfly_coeffs().terms().items()}

    space = ExpPolySpace(
        [(g, lamv) for g in product(range(4), repeat=2) if sum(g) < 4]
    )
    return _family("butterfly", DilationMatrix([[2, 0], [0, 2]]), [lamv], taps, (0.0, 0.0), space)


# -- sheared convolution ---------------------------------------------------------

# The digit set the sheared scheme is built over; a valid transversal of
# Z^2 / M Z^2 for M = [[2,1],[0,2]], staircase-shaped rather than the box.
SHEAR_DIGITS = ((0, 0), (1, 0), (1, 1), (2, 1))


def sheared_convolution(lam, normalized: bool = False) -> SchemeSpec:
    """Squared digit-sum scheme for M = [[2,1],[0,2]].

    Unnormalized: a^[k] = (1/4) (b^[k])^2 reproduces exp(lambda . x) with
    shift (0, 0) and nothing more.  Normalized: the extra factor
    r_k^-(2,1) makes the scheme reproduce {x^gamma exp : |gamma| <= 1} with
    shift (1, 1).
    """
    if not isinstance(normalized, bool):
        raise CatalogParameterError(f"normalized must be true or false, got {normalized!r}")
    M = DilationMatrix([[2, 1], [0, 2]])
    lamv = _axis_lambda(lam, 2)

    def taps(x):
        (w,) = x
        b = {eps: cmath.exp(w[0] * eps[0] + w[1] * eps[1]) for eps in SHEAR_DIGITS}
        mask = _scale(_convolve(b, b), 0.25)
        # normalized: K = (1/4) v^(M tau - tau) at the all-ones point, tau = (1, 1)
        return _scale(mask, displacement(M, (1, 1), w)[1]) if normalized else mask

    if normalized:
        name, tau, gammas = "sheared_convolution:normalized", (1.0, 1.0), [(0, 0), (1, 0), (0, 1)]
    else:
        name, tau, gammas = "sheared_convolution", (0.0, 0.0), [(0, 0)]
    return _family(name, M, [lamv], taps, tau, ExpPolySpace([(g, lamv) for g in gammas]))


# -- sqrt3 schemes ----------------------------------------------------------------


def _sqrt3(variant: str = "approximating") -> SchemeSpec:
    """One of `sqrt3_schemes`, built alone; any other variant raises."""
    if variant == "approximating":
        terms = dict.fromkeys([(1, 1), (-1, -1), (-1, 2), (-2, 1), (1, -2), (2, -1)], 1 / 6)
        terms.update(dict.fromkeys([(-1, 0), (0, 1), (1, -1), (0, -1), (1, 0), (-1, 1)], 1 / 3))
        degree = 1
    elif variant == "interpolatory":
        terms = {(0, 0): 1.0, **dict.fromkeys([(-2, 0), (-2, 2), (0, 2), (2, 0), (2, -2), (0, -2)], -(1 / 9))}
        terms.update(dict.fromkeys([(-1, 0), (-1, 1), (0, 1), (1, 0), (1, -1), (0, -1)], 4 * (1 / 9)))
        degree = 2
    else:
        raise CatalogParameterError("sqrt3 variant must be 'approximating' or 'interpolatory'")
    M = DilationMatrix([[1, 2], [-2, -1]])
    return SchemeSpec.stationary(
        f"sqrt3:{variant}", M, LaurentSymbol(2, terms), tau=(0.0, 0.0), space=ExpPolySpace.polynomials(2, degree)
    )


def sqrt3_schemes() -> dict[str, SchemeSpec]:
    """The two stationary schemes for M = [[1,2],[-2,-1]] (M^2 = -3I).

    "approximating" reproduces linear polynomials, "interpolatory" is exactly
    interpolatory and reproduces quadratics, both with shift (0, 0).
    """
    return {variant: _sqrt3(variant) for variant in ("approximating", "interpolatory")}


# -- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog family.  `parameters` maps each scheme-file parameter to its
    description; the factory reads and checks every value.
    """

    id: str
    summary: str
    parameters: dict
    documented_tau: str
    documented_space: str
    citation: str
    factory: Callable

    def to_json_obj(self) -> dict:
        return {
            "id": self.id,
            "summary": self.summary,
            "parameters": dict(self.parameters),
            "documented_tau": self.documented_tau,
            "documented_space": self.documented_space,
            "citation": self.citation,
        }


CATALOG: dict[str, CatalogEntry] = {
    e.id: e
    for e in [
        CatalogEntry(
            id="exp_bspline",
            summary="m-ary exponential B-spline scheme, optionally n-fold and renormalized",
            parameters={
                "m": "arity >= 2",
                "lambda": "frequency",
                "n_fold": "factor multiplicity",
                "tau": "optional shift for renormalization",
            },
            documented_tau="0 (raw, n_fold=1); none (raw, n_fold>=2); the requested tau when renormalized",
            documented_space="exp(lambda x); plus x exp(lambda x) for n_fold >= 2 at tau = n/2",
            citation="exponential B-spline smoothing factors",
            factory=exp_bspline,
        ),
        CatalogEntry(
            id="exp_product",
            summary="product of geometric-sum factors at several frequencies",
            parameters={
                "m": "arity >= 2",
                "factors": "[[lambda, multiplicity], ...]",
                "normalization": "null | 'two_factor'",
            },
            documented_tau="n for two distinct factors of equal multiplicity n",
            documented_space="exp(lambda x) and exp(mu x) (two-factor normalized)",
            citation="convolved exponential B-splines",
            factory=exp_product,
        ),
        CatalogEntry(
            id="exp_box_spline",
            summary="tensor digit-set scheme for M = nI with exponential weights",
            parameters={"n_dil": "dilation factor >= 2", "lambda": "frequency vector"},
            documented_tau="0",
            documented_space="exp(lambda . x)",
            citation="exponential box splines on the unit box",
            factory=exp_box_spline,
        ),
        CatalogEntry(
            id="dual4_binary",
            summary="binary dual four-point scheme reproducing conic sections",
            parameters={"lambda": "nonzero, real or purely imaginary"},
            documented_tau="-1/2",
            documented_space="span{1, x, exp(lambda x), exp(-lambda x)}",
            citation="non-stationary analog of the dual four-point scheme",
            factory=dual4_binary,
        ),
        CatalogEntry(
            id="dual4_ternary",
            summary="ternary dual four-point scheme reproducing conic sections",
            parameters={"lambda": "nonzero, real or purely imaginary"},
            documented_tau="-1/4",
            documented_space="span{1, x, exp(lambda x), exp(-lambda x)}",
            citation="ternary dual four-point family",
            factory=dual4_ternary,
        ),
        CatalogEntry(
            id="butterfly",
            summary="interpolatory butterfly scheme built from three-directional factors",
            parameters={"lambda": "vector in R^2 or i R^2"},
            documented_tau="(0, 0)",
            documented_space="x^gamma exp(lambda . x), |gamma| < 4",
            citation="butterfly interpolatory surface scheme",
            factory=butterfly,
        ),
        CatalogEntry(
            id="sheared_convolution",
            summary="squared digit-sum scheme for the shear dilation [[2,1],[0,2]]",
            parameters={"lambda": "vector in R^2 or i R^2", "normalized": "bool"},
            documented_tau="(0, 0) raw; (1, 1) normalized",
            documented_space="exp(lambda . x) raw; |gamma| <= 1 normalized",
            citation="convolution scheme on a sheared lattice",
            factory=sheared_convolution,
        ),
        CatalogEntry(
            id="sqrt3",
            summary="stationary sqrt(3) schemes for M = [[1,2],[-2,-1]]",
            parameters={"variant": "'approximating' | 'interpolatory'"},
            documented_tau="(0, 0)",
            documented_space="linear polynomials (approximating); quadratics (interpolatory)",
            citation="sqrt(3) triangular subdivision masks",
            factory=_sqrt3,
        ),
    ]
}
