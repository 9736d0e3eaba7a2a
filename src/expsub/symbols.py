"""Sparse Laurent polynomial symbols and scheme/space containers.

A mask at refinement level k is stored through its symbol, the Laurent
polynomial a(z) = sum_alpha a_alpha z^alpha with finitely many complex
coefficients.  Derivative conditions are evaluated in weighted
falling-factorial form, z^gamma D^gamma a(z) = sum_alpha a_alpha
q_gamma(alpha) z^alpha, which is exact for Laurent polynomials.

All values are immutable once built; operations are pure.
"""

from __future__ import annotations

import warnings
from itertools import product
from numbers import Number
from typing import Callable, Iterable, Mapping

import numpy as np

from .lattice import (
    DilationMatrix,
    as_complex_vector,
    as_dimension,
    as_int,
    as_multi_index,
    as_point,
    as_real,
    as_record,
    as_tau,
)

__all__ = [
    "SymbolError",
    "SymbolDomainError",
    "LaurentSymbol",
    "SchemeSpec",
    "ExpPolySpace",
    "stacked_weighted_derivatives",
]


class SymbolError(ValueError):
    """Malformed symbol construction or mismatched dimensions."""


class SymbolDomainError(SymbolError):
    """Evaluation outside the domain (C \\ {0})^s."""


_ZERO_PAIR = np.array([-0.0, 0.0]).reshape(2, 1, 1, 1, 1)
_SIGNS = np.array([-1.0, 1.0]).reshape(2, 1, 1, 1, 1)


def _falling_weights(exps: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Exact weights q_gamma(alpha) = prod_l alpha_l (alpha_l - 1) ... (alpha_l - gamma_l + 1).

    `exps` is a (T, s) object array of exponents and `gammas` a (G, s) int
    array of multi-indices; the result is a (G, T) object array of Python ints.
    """
    out = np.ones((len(gammas), len(exps)), dtype=object)
    for l, top in enumerate(gammas.max(axis=0).tolist()):
        for d in range(top):
            out = out * np.where(gammas[:, l : l + 1] > d, exps[:, l] - d, 1)
    return out


def _convolve(a: Mapping, b: Mapping) -> dict:
    """The product of two {exponent: coefficient} maps in the coefficients' own arithmetic;
    each coefficient sums its products from 0, in the order of a's terms, then b's."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


class LaurentSymbol:
    """Finitely supported map from integer exponent vectors to complex coefficients.

    Coefficients that are exactly zero are pruned; near-zero terms are kept so
    that condition residuals stay honest.
    """

    __slots__ = ("s", "_terms")

    def __init__(self, s: int, terms: Mapping | None = None):
        s = as_dimension(s)
        object.__setattr__(self, "s", s)
        clean: dict[tuple[int, ...], complex] = {}
        for exp, c in (terms or {}).items():
            e, c = as_point(exp, s, "exponent"), complex(c)
            if c != 0:
                clean[e] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSymbol is immutable")

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def zero(cls, s: int) -> "LaurentSymbol":
        return cls(s, {})

    @classmethod
    def one(cls, s: int) -> "LaurentSymbol":
        return cls(s, {(0,) * as_dimension(s): 1.0})

    # -- inspection ---------------------------------------------------------------

    def terms(self) -> dict[tuple[int, ...], complex]:
        return dict(self._terms)

    def coeff(self, exp) -> complex:
        return self._terms.get(as_point(exp, self.s, "exponent"), 0j)

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self._terms)

    def sorted_items(self):
        return sorted(self._terms.items())

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSymbol)
            and self.s == other.s
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.s, frozenset(self._terms.items())))

    def __repr__(self):
        pieces = [f"{c!r}*z^{e}" for e, c in self.sorted_items()]
        return f"LaurentSymbol(s={self.s}, {' + '.join(pieces) or '0'})"

    # -- ring operations ----------------------------------------------------------

    def _check_peer(self, other):
        if not isinstance(other, LaurentSymbol):
            raise TypeError("expected a LaurentSymbol")
        if self.s != other.s:
            raise SymbolError("dimension mismatch")

    def __add__(self, other):
        self._check_peer(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentSymbol(self.s, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, Number):
            if not isinstance(other, (int, float, complex)):  # scale by the equal Python number
                other = other.item() if isinstance(other, np.generic) else complex(other)
            return LaurentSymbol(
                self.s, {e: c * other for e, c in self._terms.items()}
            )
        self._check_peer(other)
        return LaurentSymbol(self.s, _convolve(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = as_int(n, "power")
        if n < 0:
            raise SymbolError("power must be nonnegative")
        out = LaurentSymbol.one(self.s)
        for _ in range(n):
            out = out * self
        return out

    def shift(self, beta) -> "LaurentSymbol":
        """Multiply by z^beta, translating every exponent."""
        b = as_point(beta, self.s, "shift")
        return LaurentSymbol(
            self.s,
            {tuple(e + d for e, d in zip(exp, b)): c for exp, c in self._terms.items()},
        )

    # -- analysis -------------------------------------------------------------------

    def weighted_derivatives(self, gammas, points) -> np.ndarray:
        """z^gamma D^gamma a(z) for every gamma and point, as a (G, P) complex array.

        The one-level view of `stacked_weighted_derivatives`, whose bit
        contract it keeps.
        """
        zs = [as_complex_vector(z, self.s) for z in points]
        return stacked_weighted_derivatives([self], gammas, np.array(zs, dtype=complex).reshape(1, -1, self.s))[0]

    def eval(self, z) -> complex:
        """a(z) = sum a_alpha z^alpha; negative exponents via reciprocals."""
        return complex(self.weighted_derivatives([(0,) * self.s], [z])[0, 0])

    def weighted_derivative(self, gamma, z) -> complex:
        """z^gamma D^gamma a(z) = sum a_alpha q_gamma(alpha) z^alpha.

        The falling-factorial weights are exact integers, so this avoids
        differentiating through negative exponents symbolically.
        """
        return complex(self.weighted_derivatives([gamma], [z])[0, 0])

    def polyphase_arrays(self, M: DilationMatrix) -> list[tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
        """The sub-symbols a_e as coarse-lattice taps [(e, ns, cs)], a_(e + M ns[i]) = cs[i], from
        one `split_all` of the exponents: cosets with terms ascending, rows of ns descending."""
        if M.s != self.s:
            raise SymbolError("dimension mismatch with dilation matrix")
        if not self._terms:
            return []
        es, ns = M.split_all(list(self._terms))
        order = np.lexsort((*-ns.T[::-1], *es.T[::-1]))
        es, ns, cs = es[order], ns[order], np.array(list(self._terms.values()))[order]
        cut = [0, *(np.flatnonzero((es[1:] != es[:-1]).any(axis=1)) + 1).tolist(), len(es)]
        return [(tuple(es[i].tolist()), ns[i:j], cs[i:j]) for i, j in zip(cut, cut[1:])]

    def sub_symbol(self, eps, M: DilationMatrix) -> "LaurentSymbol":
        """Restriction to the coset eps + M Z^s (exponents kept in place)."""
        phases = self.polyphase_arrays(M)
        e = M.coset_of(eps)
        taps = [tap for f, ns, cs in phases if f == e for tap in zip(ns.tolist(), cs.tolist())]
        return LaurentSymbol(
            self.s,
            {tuple(x + y for x, y in zip(e, M.apply(n))): c for n, c in taps},
        )

    # -- serialization -----------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        return [
            {"exp": list(e), "re": c.real, "im": c.imag}
            for e, c in self.sorted_items()
        ]

    @classmethod
    def from_json_obj(cls, obj, s: int | None = None) -> "LaurentSymbol":
        terms = {}
        for rec in obj:
            e = tuple(as_int(x, "exponent") for x in as_record(rec, ("exp", "re", "im"), "symbol term")["exp"])
            if e in terms:
                raise SymbolError(f"exponent {e} is given more than once")
            terms[e] = complex(as_real(rec["re"], "re"), as_real(rec.get("im", 0.0), "im"))
            if s is None:
                s = len(e)
        if s is None:
            raise SymbolError("cannot infer dimension of an empty symbol")
        return cls(s, terms)


def stacked_weighted_derivatives(symbols, gammas, points) -> np.ndarray:
    """z^gamma D^gamma a(z) for each level symbol a, gamma and point, as an (L, G, P) array.

    `symbols` are L symbols of one dimension s and `points` an (L, P, s)
    array: row l holds the points at which symbol l is evaluated.  Each value
    has the bits of the term-by-term loop over that symbol's `sorted_items`
    from +0.0: terms of weight q_gamma(alpha) = 0 are skipped, c * q is formed
    as CPython multiplies a complex by an int, powers are Python's `**`, and
    complex products are split into parts, as numpy's may fuse.  Levels with
    fewer terms are padded at the end with skipped terms.
    """
    if not symbols or len({sym.s for sym in symbols}) != 1:
        raise SymbolError("need one or more symbols of one dimension")
    s = symbols[0].s
    gs = np.array([as_multi_index(g, s) for g in gammas], dtype=int).reshape(-1, s)
    z = np.asarray(points, dtype=complex)
    if z.ndim != 3 or z.shape[::2] != (len(symbols), s):
        raise SymbolError(f"points must be an array of shape ({len(symbols)}, P, {s})")
    if (z == 0).any():
        raise SymbolDomainError("symbol evaluation requires nonzero components")
    items = [sym.sorted_items() for sym in symbols]
    out = np.zeros((len(symbols), len(gs), z.shape[1]), dtype=complex)
    T = max(map(len, items))
    if not T or not len(gs):
        return out
    level = np.repeat(np.arange(len(items)), [len(it) for it in items])
    slot = np.concatenate([np.arange(len(it)) for it in items])
    exps, coeffs = zip(*(term for it in items for term in it))
    w = np.zeros((len(items), T, len(gs)))  # padded terms have weight 0
    w[level, slot] = _falling_weights(np.array(exps, dtype=object), gs).astype(float).T
    used = w != 0  # (L, T, G)
    c = np.zeros((len(items), T), dtype=complex)
    c[level, slot] = coeffs
    # Each power is taken once per level, coordinate and exponent, and only
    # where a term needs it: rows of `table`, picked out by `pick`.
    table = [[0j] * z.shape[1]]  # the row of a power no term needs
    pick = []  # (L, s, T) row numbers
    for it, zk, need in zip(items, z.transpose(0, 2, 1).tolist(), used.any(axis=2).tolist()):
        needed = [e for (e, _), u in zip(it, need) if u]
        pick.append([])
        for l, zl in enumerate(zk):
            rows = {e: len(table) + n for n, e in enumerate(dict.fromkeys(e[l] for e in needed))}
            table.extend([x**e for x in zl] for e in rows)
            pick[-1].append([rows[e[l]] if u else 0 for (e, _), u in zip(it, need)] + [0] * (T - len(it)))
    p = np.array(table, dtype=complex)[np.array(pick).transpose(1, 0, 2)][:, :, :, None, :]  # (s, L, T, 1, P)
    c = c.view(float).reshape(len(items), T, 2).transpose(2, 0, 1)[:, :, :, None, None]  # (re, im) rows
    with np.errstate(over="ignore", invalid="ignore"):  # as quiet as Python's complex
        # Values are (2, L, T, G, P) arrays of (re, im) parts; x times r + ij
        # is x * r + x[::-1] * (-j, j) = (re r - im j, im r + re j).
        x = c * w[:, :, :, None] + c[::-1] * _ZERO_PAIR  # CPython's c * w
        for r, j in zip(p.real, _SIGNS * p.imag[:, None]):
            x = x * r + x[::-1] * j
        # Sequential sums; the + 0.0 gives the loop's +0.0 where every
        # term is -0.0, and a skipped term's +0.0 changes no running sum.
        total = np.add.accumulate(np.where(used[:, :, :, None], x, 0.0), axis=2)[:, :, -1] + 0.0
    out.real, out.imag = total
    return out


class SchemeSpec:
    """Level-indexed family of masks k -> a^[k] over one dilation matrix.

    `rule` maps a level to a LaurentSymbol; results are cached.  `tau` is the
    documented shift parameter, `space` the documented reproduction space.
    Attributes cannot be set after construction; `scaled` and `shifted`
    build derived specs.
    """

    def __init__(
        self,
        name: str,
        M: DilationMatrix,
        rule: Callable[[int], LaurentSymbol],
        tau=None,
        space: "ExpPolySpace | None" = None,
    ):
        for attr, value in (
            ("name", str(name)),
            ("M", M),
            ("_rule", rule),
            ("tau", None if tau is None else as_tau(tau, M.s)),
            ("space", space),
            ("_cache", {}),
        ):
            object.__setattr__(self, attr, value)

    def __setattr__(self, name, value):
        raise AttributeError("SchemeSpec is immutable")

    def symbol(self, k: int) -> LaurentSymbol:
        k = as_int(k, "level")
        if k < 0:
            raise SymbolError("level must be nonnegative")
        sym = self._cache.get(k)
        if sym is None:
            sym = self._rule(k)
            if not isinstance(sym, LaurentSymbol) or sym.s != self.M.s:
                raise SymbolError(f"rule for level {k} returned a bad symbol")
            self._cache[k] = sym
        return sym

    @classmethod
    def stationary(cls, name, M, sym: LaurentSymbol, tau=None, space=None):
        return cls(name, M, lambda k: sym, tau=tau, space=space)

    @classmethod
    def from_levels(cls, name, M, levels, tail: LaurentSymbol, tau=None, space=None):
        """Explicit per-level symbols with a stationary tail beyond the list."""
        lv = list(levels)

        def rule(k):
            return lv[k] if k < len(lv) else tail

        return cls(name, M, rule, tau=tau, space=space)

    def scaled(self, factor: Callable[[int], complex], suffix="scaled", tau=None):
        """Per-level rescaling k -> factor(k) * a^[k]."""
        return SchemeSpec(
            f"{self.name}:{suffix}",
            self.M,
            lambda k: self.symbol(k) * factor(k),
            tau=self.tau if tau is None else tau,
            space=self.space,
        )

    def shifted(self, beta, tau=None):
        """Symbols z^beta * a^[k]; reproduction shifts move tau accordingly."""
        b = as_point(beta, self.M.s, "shift")
        return SchemeSpec(
            f"{self.name}:shift{b}",
            self.M,
            lambda k: self.symbol(k).shift(b),
            tau=tau,
            space=self.space,
        )


def _lambda_key(lam: tuple[complex, ...]):
    return tuple((z.real, z.imag) for z in lam)


class ExpPolySpace:
    """A finite set Q of (gamma, lambda) pairs spanning x^gamma exp(lambda . x).

    The gamma set is completed downward per lambda (with a warning) because
    the derivative conditions for gamma involve all smaller multi-indices.
    Attributes cannot be set after construction.
    """

    def __init__(self, pairs: Iterable):
        norm: set[tuple[tuple[int, ...], tuple[complex, ...]]] = set()
        s = None
        for gamma, lam in pairs:
            g = as_multi_index(gamma)
            lv = as_complex_vector(lam)
            if s is None:
                s = len(g)
            if len(g) != s or len(lv) != s:
                raise SymbolError("inconsistent dimensions in space pairs")
            norm.add((g, lv))
        if s is None:
            raise SymbolError("space needs at least one (gamma, lambda) pair")
        object.__setattr__(self, "s", s)
        closed = set(norm)
        for g, lv in norm:
            for smaller in product(*(range(x + 1) for x in g)):
                closed.add((tuple(smaller), lv))
        if closed != norm:
            warnings.warn(
                f"space was not downward closed; {len(closed) - len(norm)} pair(s) added",
                stacklevel=2,
            )
        object.__setattr__(self, "pairs", tuple(
            sorted(closed, key=lambda p: (_lambda_key(p[1]), sum(p[0]), p[0]))
        ))

    def __setattr__(self, name, value):
        raise AttributeError("ExpPolySpace is immutable")

    def lambdas(self) -> list[tuple[complex, ...]]:
        seen = []
        for _, lam in self.pairs:
            if lam not in seen:
                seen.append(lam)
        return seen

    def gammas_for(self, lam) -> list[tuple[int, ...]]:
        lv = as_complex_vector(lam, self.s)
        return [g for g, l in self.pairs if l == lv]

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other):
        return isinstance(other, ExpPolySpace) and self.pairs == other.pairs

    @classmethod
    def polynomials(cls, s: int, max_degree: int) -> "ExpPolySpace":
        """All x^gamma with |gamma| <= max_degree (lambda = 0)."""
        s, max_degree = as_dimension(s), as_int(max_degree, "degree")
        zero = (0.0,) * s
        pairs = [
            (g, zero)
            for g in product(range(max_degree + 1), repeat=s)
            if sum(g) <= max_degree
        ]
        return cls(pairs)

    @classmethod
    def exponentials(cls, lambdas, s: int | None = None) -> "ExpPolySpace":
        """Pure exponentials exp(lambda . x), gamma = 0."""
        lams = [as_complex_vector(l, s) for l in lambdas]
        return cls([((0,) * len(l), l) for l in lams])

    @classmethod
    def span(cls, gammas, lambdas) -> "ExpPolySpace":
        gs = [as_multi_index(g) for g in gammas]
        ls = [as_complex_vector(l) for l in lambdas]
        return cls([(g, l) for g in gs for l in ls])

    def to_json_obj(self):
        return {
            "pairs": [
                {"gamma": list(g), "lambda": [[z.real, z.imag] for z in lam]}
                for g, lam in self.pairs
            ]
        }
