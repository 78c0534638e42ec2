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

An Euler factor (z; q)_oo or 1/(z; q)_oo takes a one-term argument
z = c s^i t^j, and Euler's identities give its expansion term by term
(Gasper & Rahman 2004, section 1.3): the series is written down at once,
with no series product. It has at most one term per degree layer, so a
dense series meets a product of Euler series one factor at a time, as in
`dense * euler_series(z1, q) * euler_inv_series(z2, q)`, at about one pair
per term of the dense series per layer. The product of the Euler series,
multiplied out first, would be dense itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from types import MappingProxyType

from .qcore import (MultiPoly, _accumulate, _build, _pack, _split, _union, _widen, frac,
                    lincomb, qfac, tri)

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


def series_inv(f: TruncSeries) -> TruncSeries:
    """Inverse of a series whose constant term is a nonzero rational."""
    return _divide(TruncSeries.one(f.vars, f.order), f)


def _divide(f: TruncSeries, d: TruncSeries) -> TruncSeries:
    """f / d for a series d whose constant term is a nonzero rational.

    Solved degree layer by degree layer from g_n = (f_n - sum_{k>=1} d_k
    g_{n-k}) / d_0, each layer of g one `qcore._accumulate` of f_n and the
    products with the nonzero layers of d; exact. A sparse d, such as
    1 - c t, costs one pair per layer.
    """
    order, fl, dl = f._common(d)
    fields = fl[0].vars
    d0 = dl[0]
    if not d0._num:
        raise ZeroDivisionError("cannot divide by a series with zero constant term")
    if set(d0._num) != {0}:
        raise ValueError("the constant term of the divisor is not a rational")
    c0 = d0._num[0]
    # 1/d_0 = den/c0, with a positive denominator
    cn, cd = (d0._den, c0) if c0 > 0 else (-d0._den, -c0)
    zero = _build(fields, 1, {})
    nonconst = [k for k in range(1, order + 1) if dl[k]._num]
    g = []
    for n in range(order + 1):
        terms = [(cn, cd * fl[n]._den, fl[n], None)] if fl[n]._num else []
        terms += [(-cn, cd * dl[k]._den * g[n - k]._den, dl[k], g[n - k])
                  for k in nonconst if k <= n and g[n - k]._num]
        g.append(_accumulate(terms, fields) if terms else zero)
    return _make(f.vars, order, tuple(g))


def _euler(z: TruncSeries, weight, name: str) -> TruncSeries:
    """1 + sum_k weight(k) c^k s^(k i) t^(k j) for a one-term z = c s^i t^j,
    through z's order. A zero z gives 1."""
    terms = z.coeffs
    if not terms:
        return TruncSeries.one(z.vars, z.order)
    idx = next(iter(terms))
    if len(terms) > 1 or not any(idx):
        raise ValueError(f"{name} needs a one-term series c*s^i*t^j with i + j > 0")
    c = terms[idx]
    coeffs = {(0,) * len(idx): Fraction(1)}
    for k in range(1, z.order // sum(idx) + 1):
        coeffs[tuple(k * i for i in idx)] = c ** k * weight(k)
    return TruncSeries(z.vars, z.order, coeffs)


def euler_series(z: TruncSeries, q: Fraction) -> TruncSeries:
    """(z; q)_oo for a one-term z: sum_k (-1)^k q^(k(k-1)/2) z^k / (q;q)_k."""
    q = frac(q)
    return _euler(z, lambda k: Fraction((-1) ** k) * q ** tri(k) / qfac(q, k),
                  "euler_series")


def euler_inv_series(z: TruncSeries, q: Fraction) -> TruncSeries:
    """1/(z; q)_oo for a one-term z: sum_k z^k / (q;q)_k."""
    q = frac(q)
    return _euler(z, lambda k: Fraction(1) / qfac(q, k), "euler_inv_series")


def phi_series(upper, lower, q: Fraction, argument: TruncSeries,
               ratio_upper=()) -> TruncSeries:
    """Truncated expansion of the basic hypergeometric r+1_phi_r(upper;
    lower; q, argument), through the argument's order.

    upper and lower entries are ring elements or series in the argument's
    variables (a parameter like x*t is a degree-1 series in t). Term j is
    prod(upper Pochhammers) * prod(ratio factors) * argument^j divided by
    (q;q)_j and the lower Pochhammers, all exact in the coefficient ring.
    Lower parameters must keep the denominator invertible as a series (unit
    constant term), which every zero-constant or scalar parameter does.

    ratio_upper entries are (num, den) pairs standing for a parameter
    num/den whose Pochhammer factor is kept polynomial by absorbing den^j
    into the argument: the caller passes the true argument divided by every
    ratio's den, and term j is multiplied by prod_{k<j}(den - num q^k) per
    ratio. That product equals (num/den; q)_j den^j and remains valid at
    den = 0.
    """
    q = frac(q)
    one = TruncSeries.one(argument.vars, argument.order)
    # a series parameter is used as it is: products keep the smaller order
    uppers = [p if isinstance(p, TruncSeries) else one.scale(p) for p in upper]
    lowers = [p if isinstance(p, TruncSeries) else one.scale(p) for p in lower]
    out = num = den_inv = argpow = one
    ratio = Fraction(1)
    for j in range(1, argument.order + 1):
        qk = q ** (j - 1)
        for u in uppers:
            num = num * (one - u.scale(qk))
        for rnum, rden in ratio_upper:
            ratio = ratio * (rden - rnum * qk)
        for l in lowers:
            den_inv = _divide(den_inv, one - l.scale(qk))
        argpow = argpow * argument
        if argpow.is_zero():
            break
        # arg^j first: the dense products cover only the degrees it leaves
        out = out + (argpow * num * den_inv).scale(ratio * (Fraction(1) / qfac(q, j)))
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
