"""Truncated formal power series in one or two variables, Euler product
expansions, and basic hypergeometric series.

Coefficients are exact: rationals or MultiPoly values. A series holds, for
each total degree d up to the order, one layer: a canonical
`qcore.MultiPoly` whose variables are placeholders for the series indices
followed by the coefficient variables (`cvars`, the sorted union of every
coefficient's variables). Every layer of a series has the same variables,
the placeholders sort before any variable name, and a rational coefficient
is a constant term of its layer, so series `+`, `-`, scaling and comparison
are polynomial operations layer by layer, and a product of two terms is one
integer addition. A product sums, for each output degree, the products of
the layer pairs whose degrees fit the order in one call of qcore's
accumulator `_accumulate`, which normalises the output layer once. `coeffs`
is a read-only view {index tuple: coefficient}, built on first use by
`qcore._split` of each layer over the index placeholders: a Fraction when
there are no cvars, else a MultiPoly.

Bivariate series are truncated by total degree. Operations on series of
different orders propagate the minimum order, which is the honest amount of
information available.

A Pochhammer factor (z; q)_j or 1/(z; q)_j, j finite or oo (an Euler
factor), takes a one-term z = c s^i t^j and is written down term by term
from the q-binomial theorem (Gasper & Rahman 2004, section 1.3), with no
series product. It has at most one term per degree layer, so a dense
series meets a product of such factors one factor at a time, at about one
pair per term of the dense series per layer. phi_series builds its terms
from them too: no exact series is ever divided or inverted.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from types import MappingProxyType

from .qcore import (MultiPoly, _accumulate, _build, _pack, _split, _union, _widen, frac,
                    lincomb, memo_table, qbinom, qfac, tri)

_SCALARS = (int, Fraction)

_PHI_SUM_TOL = 1e-13

# the leading variables of a layer, one per series index; they sort before
# any variable name
_INDEX = tuple(f"\0{i}" for i in range(2))


def _widened(layers: tuple, fields: tuple) -> tuple:
    """The layers over `fields`, a superset of their variables."""
    zero = _build(fields, 1, {})
    return tuple(_widen(layer, fields) if layer._num else zero for layer in layers)


class TruncSeries:
    """Power series known exactly through total degree `order`.

    `vars` are the series variables (one or two) and `cvars` the sorted
    variables of the coefficients. `_layers[d]` is the layer of total degree
    d, a MultiPoly as described in the module docstring, so equal series over
    the same cvars have equal layers. `coeffs` is the read-only view
    {index tuple: Fraction or MultiPoly}, absent indices being zero. Indices
    beyond the order are dropped at construction.
    """

    __slots__ = ("vars", "order", "_layers", "_coeffs")

    def __init__(self, variables, order: int, coeffs: dict):
        variables = tuple(variables)
        if not 1 <= len(variables) <= 2:
            raise ValueError("series support one or two variables")
        if order < 0:
            raise ValueError("order must be nonnegative")
        cvars = ()
        for c in coeffs.values():
            if type(c) is MultiPoly and c.vars != cvars:
                cvars = _union(cvars, c.vars)
        fields = _INDEX[:len(variables)] + cvars
        pad = (0,) * len(cvars)
        parts = [[] for _ in range(order + 1)]
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != len(variables):
                raise ValueError("index arity does not match variables")
            if any(i < 0 for i in idx):
                raise ValueError("negative series exponent")
            if sum(idx) > order:
                continue
            base = _pack(idx + pad)
            if type(c) is MultiPoly:
                c = _widen(c, fields)
                num, den = {base + e: v for e, v in c._num.items()}, c._den
            elif isinstance(c, _SCALARS):
                num, den = {base: c.numerator} if c else {}, c.denominator
            else:
                raise TypeError(f"cannot use {c!r} as a series coefficient")
            if num:
                parts[sum(idx)].append(_build(fields, den, num))
        zero = _build(fields, 1, {})
        _init(self, variables, order, tuple(
            p[0] if len(p) == 1 else lincomb((part,) for part in p) if p else zero
            for p in parts))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables, order: int) -> "TruncSeries":
        return cls(variables, order, {})

    @classmethod
    def const(cls, c, variables, order: int) -> "TruncSeries":
        return cls(variables, order, {(0,) * len(tuple(variables)): c})

    @classmethod
    def one(cls, variables, order: int) -> "TruncSeries":
        return cls.const(Fraction(1), variables, order)

    @classmethod
    def monomial(cls, variables, order: int, idx, coef=Fraction(1)) -> "TruncSeries":
        return cls(variables, order, {tuple(idx): coef})

    @classmethod
    def variable(cls, variables, order: int, name: str) -> "TruncSeries":
        variables = tuple(variables)
        idx = [0] * len(variables)
        idx[variables.index(name)] = 1
        return cls(variables, order, {tuple(idx): Fraction(1)})

    # -- basics -----------------------------------------------------------

    @property
    def cvars(self) -> tuple:
        return self._layers[0].vars[len(self.vars):]

    @property
    def coeffs(self):
        """Read-only mapping from index tuples to nonzero coefficients."""
        try:
            return self._coeffs
        except AttributeError:
            names = _INDEX[:len(self.vars)]
            view = {}
            for layer in self._layers:
                if layer._num:
                    view.update(_split(layer, names))
            if not self.cvars:
                view = {idx: Fraction(c._num[0], c._den) for idx, c in view.items()}
            view = MappingProxyType(view)
            _set_coeffs(self, view)
            return view

    def is_zero(self) -> bool:
        return not any(layer._num for layer in self._layers)

    def _common(self, other: "TruncSeries"):
        """The joint order, and both operands' layers through it over the
        joint variables."""
        if self.vars != other.vars:
            raise ValueError(f"series variable mismatch: {self.vars} vs {other.vars}")
        order = min(self.order, other.order)
        a, b = self._layers[:order + 1], other._layers[:order + 1]
        if a[0].vars != b[0].vars:
            fields = _union(a[0].vars, b[0].vars)
            a, b = _widened(a, fields), _widened(b, fields)
        return order, a, b

    def _wrap(self, other):
        if isinstance(other, _SCALARS) or isinstance(other, MultiPoly):
            return TruncSeries.const(other, self.vars, self.order)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            other = self._wrap(other)
            if other is None:
                return NotImplemented
        order, a, b = self._common(other)
        return _make(self.vars, order, tuple(
            la if not lb._num else lb if not la._num else la + lb for la, lb in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.vars, self.order, tuple(
            -layer if layer._num else layer for layer in self._layers))

    def __sub__(self, other):
        if not isinstance(other, TruncSeries) and self._wrap(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            if isinstance(other, _SCALARS) or isinstance(other, MultiPoly):
                return self.scale(other)
            return NotImplemented
        order, a, b = self._common(other)
        fields = a[0].vars
        da = [d for d, layer in enumerate(a) if layer._num]
        db = [d for d, layer in enumerate(b) if layer._num]
        pairs = [[] for _ in range(order + 1)]
        for d1 in da:
            for d2 in db:
                if d1 + d2 > order:
                    break
                pairs[d1 + d2].append((1, a[d1]._den * b[d2]._den, a[d1], b[d2]))
        zero = _build(fields, 1, {})
        return _make(self.vars, order, tuple(
            _accumulate(p, fields) if p else zero for p in pairs))

    __rmul__ = __mul__

    def scale(self, elem) -> "TruncSeries":
        if not elem:
            return TruncSeries.zero(self.vars, self.order)
        if type(elem) is MultiPoly:
            fields = _union(self._layers[0].vars, elem.vars)
            factor = _widen(elem, fields)
            return _make(self.vars, self.order, tuple(
                _accumulate([(1, layer._den * factor._den, layer, factor)], fields)
                if layer._num else layer for layer in _widened(self._layers, fields)))
        if not isinstance(elem, _SCALARS):
            raise TypeError(f"cannot scale a series by {elem!r}")
        p, q = elem.numerator, elem.denominator
        return _make(self.vars, self.order, tuple(
            layer._scaled(p, q) if layer._num else layer for layer in self._layers))

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            other = self._wrap(other)
            if other is None:
                return NotImplemented
        if self.vars != other.vars:
            return False
        _, a, b = self._common(other)
        return a == b

    __hash__ = None

    def __str__(self):
        if not self.coeffs:
            return f"O({self.order + 1})"
        parts = []
        for idx in sorted(self.coeffs, key=lambda i: (sum(i), i)):
            mono = "*".join(f"{v}^{e}" for v, e in zip(self.vars, idx) if e) or "1"
            parts.append(f"({self.coeffs[idx]})*{mono}")
        return " + ".join(parts) + f" + O({self.order + 1})"

    def __repr__(self):
        return f"TruncSeries({self})"


_new = object.__new__
_set_vars = TruncSeries.vars.__set__
_set_order = TruncSeries.order.__set__
_set_layers = TruncSeries._layers.__set__
_set_coeffs = TruncSeries._coeffs.__set__


def _init(s: TruncSeries, variables: tuple, order: int, layers: tuple) -> None:
    _set_vars(s, variables)
    _set_order(s, order)
    _set_layers(s, layers)


def _make(variables: tuple, order: int, layers: tuple) -> TruncSeries:
    """Wrap canonical layers 0..order."""
    s = _new(TruncSeries)
    _init(s, variables, order, layers)
    return s


def _poch_weights(q: Fraction, j, n: int, inverse: bool) -> tuple:
    """w_0..w_n in sum_k w_k z^k = (z; q)_j (or fewer: w_k = 0 for k > j), or
    1/(z; q)_j when inverse, j = None standing for oo: [j,k] (-1)^k
    q^(k(k-1)/2), or [j+k-1,k], with [oo,k] = 1/(q;q)_k (Gasper & Rahman
    2004, section 1.3). Each row is built once per (q, j, n) and memoised."""
    table = memo_table(("poch", inverse), q)
    row = table.get((j, n))
    if row is None:
        row = [Fraction(1)]
        for k in range(1, n + 1 if inverse or j is None else min(j, n) + 1):
            w = 1 / qfac(q, k) if j is None else qbinom(j + k - 1 if inverse else j, k, q)
            row.append(w if inverse else (-w if k % 2 else w) * q ** tri(k))
        row = table[j, n] = tuple(row)
    return row


def _powers(z: TruncSeries, name: str) -> list:
    """[(degree, layer)] of each z^k through z's order, for a one-term z =
    c s^i t^j with i + j > 0 (of 1 alone for z = 0); else ValueError."""
    terms = z.coeffs
    if not terms:
        return [(0, TruncSeries.one(z.vars, z.order)._layers[0])]
    idx = next(iter(terms))
    if len(terms) > 1 or not any(idx):
        raise ValueError(f"{name} needs a one-term series c*s^i*t^j with i + j > 0")
    c, step = terms[idx], sum(idx)
    layers = TruncSeries(z.vars, z.order, {tuple(k * i for i in idx): c ** k
                                           for k in range(z.order // step + 1)})._layers
    return [(d, layers[d]) for d in range(0, z.order + 1, step)]


def _poch(z: TruncSeries, powers: list, q: Fraction, j, inverse: bool) -> TruncSeries:
    """(z; q)_j, or 1/(z; q)_j when inverse, j = None for oo, written down
    through z's order from the _powers of z and a _poch_weights row."""
    layers = [_build(powers[0][1].vars, 1, {})] * (z.order + 1)
    for (d, layer), w in zip(powers, _poch_weights(q, j, len(powers) - 1, inverse)):
        layers[d] = layer._scaled(w.numerator, w.denominator)
    return _make(z.vars, z.order, tuple(layers))


def euler_series(z: TruncSeries, q: Fraction) -> TruncSeries:
    """(z; q)_oo for a one-term z: sum_k (-1)^k q^(k(k-1)/2) z^k / (q;q)_k."""
    return _poch(z, _powers(z, "euler_series"), frac(q), None, False)


def euler_inv_series(z: TruncSeries, q: Fraction) -> TruncSeries:
    """1/(z; q)_oo for a one-term z: sum_k z^k / (q;q)_k."""
    return _poch(z, _powers(z, "euler_inv_series"), frac(q), None, True)


def phi_series(upper, lower, q: Fraction, argument: TruncSeries,
               ratio_upper=()) -> TruncSeries:
    """Truncated expansion of the basic hypergeometric r+1_phi_r(upper;
    lower; q, argument), through the argument's order.

    The argument has zero constant term. A parameter is a one-term series
    c*s^i*t^j (i + j > 0), like x*t, or else a ring element (upper) or a
    rational (lower). Term j is argument^j times the series parameters'
    Pochhammer factors, written down by _poch, times one ring scalar, the
    other factors over (q;q)_j. Anything else, or a lower l with
    1 - l q^k = 0, raises ValueError.

    ratio_upper entries are (num, den) pairs standing for a parameter
    num/den whose Pochhammer factor is kept polynomial by absorbing den^j
    into the argument: the caller passes the true argument divided by every
    ratio's den, and term j is multiplied by prod_{k<j}(den - num q^k) per
    ratio. That product equals (num/den; q)_j den^j and remains valid at
    den = 0.
    """
    q = frac(q)
    if argument._layers[0]._num:
        raise ValueError("phi_series needs an argument with zero constant term")
    series = [(p, _powers(p, f"phi_series {kind} parameter {i}"), kind == "lower")
              for kind, params in (("upper", upper), ("lower", lower))
              for i, p in enumerate(params) if isinstance(p, TruncSeries)]
    uppers = [p for p in upper if not isinstance(p, TruncSeries)]
    lowers = [(i, p) for i, p in enumerate(lower) if not isinstance(p, TruncSeries)]
    out = argpow = TruncSeries.one(argument.vars, argument.order)
    scalar = Fraction(1)
    for j in range(1, argument.order + 1):
        qk = q ** (j - 1)
        den = 1 - q ** j
        for i, low in lowers:
            factor = 1 - low * qk
            if not isinstance(factor, _SCALARS) or not factor:
                raise ValueError(f"phi_series lower parameter {i} ({low}): 1 - l q^{j - 1} "
                                 f"is not a nonzero rational")
            den *= factor
        for u in uppers:
            scalar = scalar * (1 - u * qk)
        for rnum, rden in ratio_upper:
            scalar = scalar * (rden - rnum * qk)
        scalar = scalar * (1 / den)
        argpow = argpow * argument
        if argpow.is_zero():
            break
        # arg^j first: the written-down factors cover only the degrees it leaves
        term = argpow
        for z, powers, inverse in series:
            term = term * _poch(z, powers, q, j, inverse)
        out = out + term.scale(scalar)
    return out


def phi_sum(upper, lower, q, z, max_terms: int = 2000) -> complex:
    """Numeric value of r+1_phi_r(upper; lower; q, z) with a tail guard.

    Terms follow the defining one-step recurrence; `_sum_terms` stops once
    three consecutive terms stay below _PHI_SUM_TOL scaled against the
    geometric tail factor max(|z|/(1-|z|), 1). Requires |z| < 1.
    """
    z = complex(z)
    q = complex(q)
    r = abs(z)
    if r >= 0.999:
        raise ValueError("phi_sum needs |z| < 1")

    def terms():
        term = 1.0 + 0j
        yield term
        for n in count():
            qn = q ** n
            ratio = z
            for u in upper:
                ratio *= 1 - u * qn
            for l in lower:
                d = 1 - l * qn
                if abs(d) < 1e-14:
                    raise ZeroDivisionError("phi_sum lower parameter hit q^-n")
                ratio /= d
            d = 1 - q ** (n + 1)
            if abs(d) < 1e-14:
                raise ZeroDivisionError("phi_sum base too close to a root of unity")
            ratio /= d
            term *= ratio
            yield term

    return _sum_terms(terms(), r, _PHI_SUM_TOL, max_terms)


def _sum_terms(terms, ratio: float, tol: float, max_terms: int = 500) -> complex:
    """Sum a term iterator until three consecutive terms clear the geometric
    tail bound max(ratio/(1-ratio), 1) for the given magnitude ratio.

    A finite iterator that runs out first gives its full sum; RuntimeError
    once max_terms + 1 terms have not settled.
    """
    tail = max(ratio / (1.0 - ratio), 1.0)
    total = 0j
    small = 0
    for n, term in enumerate(terms):
        total += term
        if abs(term) * tail < tol:
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
        if n >= max_terms:
            raise RuntimeError(f"numeric series did not settle within {max_terms} terms")
    return total
