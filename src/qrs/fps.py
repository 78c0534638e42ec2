"""Truncated formal power series in one or two variables, Euler product
expansions, and basic hypergeometric series.

Coefficients are exact: rationals or MultiPoly values. A series is stored
the way `qcore.MultiPoly` is, on plain ints: for each total degree d up to
the order, one layer holding a positive int denominator and a dict from
packed exponents to nonzero int numerators, reduced so that the two share
no factor. A packed exponent carries the series indices in its leading
fields and the coefficient variables (`cvars`, the sorted union of every
coefficient's variables) in the trailing ones, so a rational coefficient is
a constant term of its layer and a product of two terms is one integer
addition. A product runs `qcore._mul_into` once per pair of layers whose
degrees fit the order, at the common denominator of the output layer, and
normalises each output layer once. `coeffs` is a read-only view {index
tuple: coefficient}, built on first use.

Bivariate series are truncated by total degree. Operations on series of
different orders propagate the minimum order, which is the honest amount of
information available.

A dense series meets a product of Euler series one factor at a time, as in
`dense * euler_series(z1, q) * euler_inv_series(z2, q)`: for z = c t with c
a monomial, an Euler series has one term per degree layer, so each product
costs about one pair per term of the dense series per layer. The product of
the Euler series, multiplied out first, would be dense itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from types import MappingProxyType

from .qcore import (_FIELD, MultiPoly, _check_guard, _moves, _mul_into, _normal,
                    _pack, _repack, _union, _unpack, frac, qfac, tri)

_SCALARS = (int, Fraction)

# the layer of a degree with no terms; layers are never mutated once built
_EMPTY = (1, MappingProxyType({}))


def _fields(nser: int, cvars: tuple) -> tuple:
    """Names of the packed fields of a series: placeholders that sort before
    any variable name for the series indices, then the coefficient variables,
    so that `qcore._moves` can re-key exponents to a wider cvars."""
    return tuple(f"\0{i}" for i in range(nser)) + cvars


def _norm(den: int, num: dict) -> tuple:
    """The canonical layer num/den: no zero numerator, no common factor."""
    if 0 in num.values():
        num = {e: c for e, c in num.items() if c}
    if not num:
        return _EMPTY
    g = gcd(den, *num.values()) if den != 1 else 1
    if g != 1:
        den //= g
        num = {e: c // g for e, c in num.items()}
    return den, num


def _sum(layers) -> tuple:
    """The sum of nonempty layers, at their common denominator; the largest
    starts the sum, copied whole at C speed when it needs no scaling."""
    layers = sorted(layers, key=lambda layer: len(layer[1]), reverse=True)
    den = lcm(*[d for d, _ in layers])
    d, num = layers[0]
    acc = dict(num) if d == den else {e: c * (den // d) for e, c in num.items()}
    get = acc.get
    for d, num in layers[1:]:
        s = den // d
        for e, c in num.items():
            acc[e] = get(e, 0) + c * s
    return _norm(den, acc)


def _convolve(pairs: list, names: tuple, cn: int = 1, cd: int = 1) -> tuple:
    """cn/cd times the sum of the products of the nonempty layer pairs.

    Every product goes into one dict at the common denominator of the
    pairs, the scale riding on the smaller factor; names are the fields,
    for the exponent guard.
    """
    dens = [a[0] * b[0] for a, b in pairs]
    den = lcm(*dens)
    acc = {}
    for d, (a, b) in zip(dens, pairs):
        small, big = (a[1], b[1]) if len(a[1]) <= len(b[1]) else (b[1], a[1])
        s = cn * (den // d)
        if s != 1:
            small = {e: c * s for e, c in small.items()}
        acc = _mul_into(acc, small, big)
    _check_guard(acc, names)
    return _norm(den * cd, acc)


def _coef(cvars: tuple, den: int, num: dict):
    """A coefficient from its numerators over cvars: a Fraction when the
    series has no coefficient variables, else a MultiPoly."""
    if not cvars:
        return Fraction(num.get(0, 0), den)
    return _normal(cvars, den, num)


class TruncSeries:
    """Power series known exactly through total degree `order`.

    `vars` are the series variables (one or two) and `cvars` the sorted
    variables of the coefficients. `_layers[d]` is the layer (den, num) of
    total degree d, canonical as described in the module docstring, so equal
    series over the same cvars have equal layers. `coeffs` is the read-only
    view {index tuple: Fraction or MultiPoly}, absent indices being zero, and
    `coefficient(idx)` reads it. Indices beyond the order are dropped at
    construction.
    """

    __slots__ = ("vars", "order", "cvars", "_layers", "_coeffs")

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
        shift = _FIELD * len(cvars)
        parts = [[] for _ in range(order + 1)]
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != len(variables):
                raise ValueError("index arity does not match variables")
            if any(i < 0 for i in idx):
                raise ValueError("negative series exponent")
            if sum(idx) > order:
                continue
            base = _pack(idx) << shift
            if type(c) is MultiPoly:
                num = {base + e: v for e, v in _repack(c._num, _moves(c.vars, cvars)).items()}
                den = c._den
            elif isinstance(c, _SCALARS):
                num = {base: c.numerator} if c else {}
                den = c.denominator
            else:
                raise TypeError(f"cannot use {c!r} as a series coefficient")
            if num:
                parts[sum(idx)].append((den, num))
        _init(self, variables, order, cvars,
              tuple(_sum(p) if len(p) > 1 else p[0] if p else _EMPTY for p in parts))

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
    def coeffs(self):
        """Read-only mapping from index tuples to nonzero coefficients."""
        try:
            return self._coeffs
        except AttributeError:
            shift = _FIELD * len(self.cvars)
            mask = (1 << shift) - 1
            view = {}
            for den, num in self._layers:
                groups = {}
                for e, c in num.items():
                    groups.setdefault(e >> shift, {})[e & mask] = c
                for key, part in sorted(groups.items()):
                    view[_unpack(key, len(self.vars))] = _coef(self.cvars, den, part)
            view = MappingProxyType(view)
            _set_coeffs(self, view)
            return view

    def coefficient(self, idx):
        return self.coeffs.get(tuple(idx), Fraction(0))

    def is_zero(self) -> bool:
        return not any(num for _, num in self._layers)

    def truncate(self, order: int) -> "TruncSeries":
        """Forget coefficients above `order`. Never extends knowledge."""
        if order >= self.order:
            return self
        return _make(self.vars, order, self.cvars, self._layers[:order + 1])

    def _over(self, cvars: tuple, order: int) -> tuple:
        """The layers through `order`, re-keyed over the wider cvars."""
        layers = self._layers[:order + 1]
        if cvars == self.cvars:
            return layers
        n = len(self.vars)
        moves = _moves(_fields(n, self.cvars), _fields(n, cvars))
        return tuple((den, _repack(num, moves)) if num else _EMPTY for den, num in layers)

    def _common(self, other: "TruncSeries"):
        """The joint order and cvars, and both operands' layers over them."""
        if self.vars != other.vars:
            raise ValueError(f"series variable mismatch: {self.vars} vs {other.vars}")
        order = min(self.order, other.order)
        cvars = self.cvars if self.cvars == other.cvars else _union(self.cvars, other.cvars)
        return order, cvars, self._over(cvars, order), other._over(cvars, order)

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
        order, cvars, a, b = self._common(other)
        return _make(self.vars, order, cvars, tuple(
            la if not lb[1] else lb if not la[1] else _sum((la, lb))
            for la, lb in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.vars, self.order, self.cvars, tuple(
            (den, {e: -c for e, c in num.items()}) if num else _EMPTY
            for den, num in self._layers))

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
        order, cvars, a, b = self._common(other)
        names = self.vars + cvars
        da = [d for d, layer in enumerate(a) if layer[1]]
        db = [d for d, layer in enumerate(b) if layer[1]]
        pairs = [[] for _ in range(order + 1)]
        for d1 in da:
            for d2 in db:
                if d1 + d2 > order:
                    break
                pairs[d1 + d2].append((a[d1], b[d2]))
        return _make(self.vars, order, cvars,
                     tuple(_convolve(p, names) if p else _EMPTY for p in pairs))

    __rmul__ = __mul__

    def scale(self, elem) -> "TruncSeries":
        if not elem:
            return TruncSeries.zero(self.vars, self.order)
        if type(elem) is MultiPoly:
            cvars = _union(self.cvars, elem.vars)
            factor = (elem._den, _repack(elem._num, _moves(elem.vars, cvars)))
            names = self.vars + cvars
            return _make(self.vars, self.order, cvars, tuple(
                _convolve([(layer, factor)], names) if layer[1] else _EMPTY
                for layer in self._over(cvars, self.order)))
        if not isinstance(elem, _SCALARS):
            raise TypeError(f"cannot scale a series by {elem!r}")
        return _make(self.vars, self.order, self.cvars, tuple(
            _scaled(layer, elem.numerator, elem.denominator) if layer[1] else _EMPTY
            for layer in self._layers))

    # -- comparison ---------------------------------------------------------

    def diff_witness(self, other: "TruncSeries"):
        """First differing index (lexicographic) and the difference, or None."""
        order, cvars, a, b = self._common(other)
        shift = _FIELD * len(cvars)
        best = None
        for la, lb in zip(a, b):
            if la == lb:
                continue
            neg = (lb[0], {e: -c for e, c in lb[1].items()})
            den, num = _sum([layer for layer in (la, neg) if layer[1]])
            key = min(e >> shift for e in num)
            if best is None or key < best[0]:
                best = key, den, num
            if len(self.vars) == 1:
                break
        if best is None:
            return None
        key, den, num = best
        mask = (1 << shift) - 1
        part = {e & mask: c for e, c in num.items() if e >> shift == key}
        return _unpack(key, len(self.vars)), _coef(cvars, den, part)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            other = self._wrap(other)
            if other is None:
                return NotImplemented
        if self.vars != other.vars:
            return False
        return self.diff_witness(other) is None

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
_set_cvars = TruncSeries.cvars.__set__
_set_layers = TruncSeries._layers.__set__
_set_coeffs = TruncSeries._coeffs.__set__


def _init(s: TruncSeries, variables: tuple, order: int, cvars: tuple, layers: tuple) -> None:
    _set_vars(s, variables)
    _set_order(s, order)
    _set_cvars(s, cvars)
    _set_layers(s, layers)


def _make(variables: tuple, order: int, cvars: tuple, layers: tuple) -> TruncSeries:
    """Wrap canonical layers 0..order."""
    s = _new(TruncSeries)
    _init(s, variables, order, cvars, layers)
    return s


def _scaled(layer: tuple, p: int, q: int) -> tuple:
    """layer * p/q for a reduced p/q; only gcd(p, den) and the gcd of q with
    the numerators can cancel, so no full gcd pass is needed."""
    den, num = layer
    g = gcd(p, den)
    gq = gcd(q, *num.values()) if q != 1 else 1
    p //= g
    if p != 1 or gq != 1:
        num = {e: c // gq * p for e, c in num.items()}
    return den // g * (q // gq), num


def series_inv(f: TruncSeries) -> TruncSeries:
    """Inverse of a series whose constant term is a nonzero rational."""
    return _divide(TruncSeries.one(f.vars, f.order), f)


# -1 as a layer, in any frame
_MINUS_ONE = (1, {0: -1})


def _divide(f: TruncSeries, d: TruncSeries) -> TruncSeries:
    """f / d for a series d whose constant term is a nonzero rational.

    Solved degree layer by degree layer from g_n = (f_n - sum_{k>=1} d_k
    g_{n-k}) / d_0, each layer of g one `_convolve` over the nonzero layers
    of d; exact. A sparse d, such as 1 - c t, costs one pair per layer.
    """
    order, cvars, fl, dl = f._common(d)
    den0, num0 = dl[0]
    if not num0:
        raise ZeroDivisionError("cannot divide by a series with zero constant term")
    if set(num0) != {0}:
        raise ValueError("the constant term of the divisor is not a rational")
    c0 = num0[0]
    # -1/d_0 = -den0/c0, with a positive denominator
    cn, cd = (-den0, c0) if c0 > 0 else (den0, -c0)
    names = f.vars + cvars
    nonconst = [k for k in range(1, order + 1) if dl[k][1]]
    g = []
    for n in range(order + 1):
        pairs = [(fl[n], _MINUS_ONE)] if fl[n][1] else []
        pairs += [(dl[k], g[n - k]) for k in nonconst if k <= n and g[n - k][1]]
        g.append(_convolve(pairs, names, cn, cd) if pairs else _EMPTY)
    return _make(f.vars, order, cvars, tuple(g))


def as_series(value, variables, order: int) -> TruncSeries:
    """Lift a ring element (or pass a series through) into the given frame."""
    if isinstance(value, TruncSeries):
        if value.vars != tuple(variables):
            raise ValueError("series variable mismatch")
        return value.truncate(order)
    return TruncSeries.const(value, variables, order)


def _power_sum(z: TruncSeries, weight, name: str) -> TruncSeries:
    """1 + sum_k weight(k) z^k over k <= z.order, for the Euler-type expansions.

    z must have zero constant term, so z^k raises the valuation and the sum
    is finite at any truncation order.
    """
    if z._layers[0][1]:
        raise ValueError(f"{name} needs a series with zero constant term")
    out = TruncSeries.one(z.vars, z.order)
    power = TruncSeries.one(z.vars, z.order)
    for k in range(1, z.order + 1):
        power = power * z
        if power.is_zero():
            break
        out = out + power.scale(weight(k))
    return out


def euler_series(z: TruncSeries, q: Fraction) -> TruncSeries:
    """(z; q)_oo as a truncated series: sum_k (-1)^k q^(k(k-1)/2) z^k / (q;q)_k."""
    q = frac(q)
    return _power_sum(z, lambda k: Fraction((-1) ** k) * q ** tri(k) / qfac(q, k),
                      "euler_series")


def euler_inv_series(z: TruncSeries, q: Fraction) -> TruncSeries:
    """1/(z; q)_oo as a truncated series: sum_k z^k / (q;q)_k."""
    q = frac(q)
    return _power_sum(z, lambda k: Fraction(1) / qfac(q, k), "euler_inv_series")


@dataclass(frozen=True)
class PhiSpec:
    """Description of a basic hypergeometric series r+1_phi_r.

    upper / lower entries are ring elements or series of degree <= 1 in the
    frame variables (a parameter like x*t is a degree-1 series in t).
    ratio_upper entries are (num, den) pairs standing for a parameter
    num/den whose Pochhammer factor is kept polynomial by absorbing den^j
    into the argument: the caller passes `argument` equal to the true
    argument divided by every ratio's den, and the engine multiplies term j
    by prod_{k<j}(den - num q^k) per ratio. That product equals
    (num/den; q)_j den^j and remains valid at den = 0.
    """

    upper: tuple = ()
    lower: tuple = ()
    q: Fraction = Fraction(1, 2)
    argument: TruncSeries = None
    ratio_upper: tuple = ()


def phi_series(spec: PhiSpec, order: int | None = None) -> TruncSeries:
    """Truncated expansion of the basic hypergeometric sum described by spec.

    Term j is prod(upper Pochhammers) * prod(ratio factors) * arg^j divided
    by (q;q)_j and the lower Pochhammers, all exact in the coefficient ring.
    Lower parameters must keep the denominator invertible as a series (unit
    constant term), which every zero-constant or scalar parameter does.
    """
    arg = spec.argument
    if arg is None:
        raise ValueError("PhiSpec.argument is required")
    variables = arg.vars
    N = arg.order if order is None else min(order, arg.order)
    q = frac(spec.q)
    arg = arg.truncate(N)
    one = TruncSeries.one(variables, N)
    uppers = [as_series(p, variables, N) for p in spec.upper]
    lowers = [as_series(p, variables, N) for p in spec.lower]
    out = num = den_inv = argpow = one
    ratio = Fraction(1)
    for j in range(1, N + 1):
        qk = q ** (j - 1)
        for u in uppers:
            num = num * (one - u.scale(qk))
        for rnum, rden in spec.ratio_upper:
            ratio = ratio * (rden - rnum * qk)
        for l in lowers:
            den_inv = _divide(den_inv, one - l.scale(qk))
        argpow = argpow * arg
        if argpow.is_zero():
            break
        # arg^j first: the dense products cover only the degrees it leaves
        out = out + (argpow * num * den_inv).scale(ratio * (Fraction(1) / qfac(q, j)))
    return out


def phi_sum(upper, lower, q, z, tol: float = 1e-13, max_terms: int = 2000) -> complex:
    """Numeric value of r+1_phi_r(upper; lower; q, z) with a tail guard.

    Terms follow the defining one-step recurrence; `_sum_terms` stops once
    three consecutive terms stay below tol scaled against the geometric
    tail factor max(|z|/(1-|z|), 1). Requires |z| < 1.
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

    return _sum_terms(terms(), r, tol, max_terms)


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
