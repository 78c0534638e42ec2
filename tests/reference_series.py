"""Frozen reference for the truncated-series tests, plus test-only
conveniences built on the package's own series.

`TruncSeries`, `series_inv` and `phi_series` below are the per-coefficient
implementation that the layered packed storage of `qrs.fps` replaced:
coefficients are a dict from index tuples to Fractions or MultiPoly values,
and each output coefficient of a product is one `lincomb` over its
contributing pairs. It is slow but obviously right, so the property tests in
test_fps.py check the packed layers against it. It is not part of the
package and nothing outside the tests imports it; do not optimise it.

`power_sum` is the Euler expansion that `qrs.fps` ran before it wrote an
Euler series down from its one-term argument: 1 + sum_k weight(k) z^k by
repeated package series products, for any z with zero constant term.

`truncate`, `euler_expand`, `euler_inv_expand`, `cauchy_expand` and
`poch_series` are thin wrappers over `qrs.fps` that only tests call; they
build package series, not reference ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import starmap
from operator import add, mul

from reference_multipoly import constant_value

from qrs import fps
from qrs.qcore import MultiPoly, frac, lincomb, qfac, qpochs

_SCALARS = (int, Fraction)


def is_zero_elem(e) -> bool:
    if isinstance(e, MultiPoly):
        return not e
    return e == 0


def invert_elem(e):
    """Multiplicative inverse of a ring unit (scalars and constant polys)."""
    if isinstance(e, MultiPoly):
        c = constant_value(e)
        if not c:
            raise ZeroDivisionError("cannot invert zero")
        return Fraction(1) / c
    if not e:
        raise ZeroDivisionError("cannot invert zero")
    return Fraction(1) / Fraction(e)


class TruncSeries:
    """Power series known exactly through total degree `order`.

    coeffs maps index tuples (one entry per series variable) to ring
    elements; absent indices are zero. Indices beyond the order are dropped
    at construction.
    """

    __slots__ = ("vars", "order", "coeffs")

    def __init__(self, variables, order: int, coeffs: dict):
        variables = tuple(variables)
        clean = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if sum(idx) <= order and not is_zero_elem(c):
                clean[idx] = c
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def one(cls, variables, order: int) -> "TruncSeries":
        return cls(variables, order, {(0,) * len(tuple(variables)): Fraction(1)})

    def coefficient(self, idx):
        return self.coeffs.get(tuple(idx), Fraction(0))

    def constant_term(self):
        return self.coefficient((0,) * len(self.vars))

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncate(self, order: int) -> "TruncSeries":
        if order >= self.order:
            return self
        return TruncSeries(self.vars, order, self.coeffs)

    def _compat(self, other: "TruncSeries") -> int:
        if self.vars != other.vars:
            raise ValueError(f"series variable mismatch: {self.vars} vs {other.vars}")
        return min(self.order, other.order)

    def _wrap(self, other):
        if isinstance(other, _SCALARS) or isinstance(other, MultiPoly):
            return TruncSeries(self.vars, self.order, {(0,) * len(self.vars): other})
        return None

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            other = self._wrap(other)
            if other is None:
                return NotImplemented
        order = self._compat(other)
        coeffs = {i: c for i, c in self.coeffs.items() if sum(i) <= order}
        for i, c in other.coeffs.items():
            if sum(i) > order:
                continue
            s = coeffs.get(i)
            s = c if s is None else s + c
            if is_zero_elem(s):
                coeffs.pop(i, None)
            else:
                coeffs[i] = s
        return TruncSeries(self.vars, order, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.vars, self.order, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        order = self._compat(other)
        pairs = {}
        for i1, c1 in self.coeffs.items():
            d1 = sum(i1)
            if d1 > order:
                continue
            for i2, c2 in other.coeffs.items():
                if d1 + sum(i2) > order:
                    continue
                key = tuple(a + b for a, b in zip(i1, i2))
                pairs.setdefault(key, []).append((c1, c2))
        return TruncSeries(self.vars, order,
                           {key: _dot(terms) for key, terms in pairs.items()})

    __rmul__ = __mul__

    def scale(self, elem) -> "TruncSeries":
        if is_zero_elem(elem):
            return TruncSeries(self.vars, self.order, {})
        return TruncSeries(self.vars, self.order, {i: c * elem for i, c in self.coeffs.items()})

    def shift(self, idx) -> "TruncSeries":
        idx = tuple(idx)
        return TruncSeries(self.vars, self.order,
                           {tuple(a + b for a, b in zip(i, idx)): c
                            for i, c in self.coeffs.items()})

    def diff_witness(self, other: "TruncSeries"):
        """First differing index (lexicographic) and the difference, or None."""
        order = self._compat(other)
        for idx in sorted(set(self.coeffs) | set(other.coeffs)):
            if sum(idx) > order:
                continue
            d = self.coefficient(idx) - other.coefficient(idx)
            if not is_zero_elem(d):
                return idx, d
        return None


def _dot(terms: list, scale=1):
    """scale * sum of a * b over the nonempty list of (a, b) pairs in terms."""
    for a, b in terms:
        if type(a) is MultiPoly or type(b) is MultiPoly:
            return lincomb((scale, a, b) for a, b in terms)
    total = reduce(add, starmap(mul, terms))
    return total if scale == 1 else total * scale


def series_inv(f: TruncSeries) -> TruncSeries:
    """Inverse of a series whose constant term is a ring unit, coefficient
    by coefficient from the convolution recurrence."""
    inv0 = invert_elem(f.constant_term())
    n = len(f.vars)
    out = {(0,) * n: inv0}
    nonconst = {i: c for i, c in f.coeffs.items() if any(i)}
    for total in range(1, f.order + 1):
        indices = [(total,)] if n == 1 else [(i, total - i) for i in range(total + 1)]
        for idx in indices:
            terms = []
            for fi, fc in nonconst.items():
                gc = out.get(tuple(a - b for a, b in zip(idx, fi)))
                if gc is not None:
                    terms.append((fc, gc))
            if terms:
                g = _dot(terms, -inv0)
                if not is_zero_elem(g):
                    out[idx] = g
    return TruncSeries(f.vars, f.order, out)


def phi_series(upper, lower, q: Fraction, argument: TruncSeries,
               ratio_upper=(), order: int | None = None) -> TruncSeries:
    """The truncated basic hypergeometric sum that `qrs.fps.phi_series`
    takes the same arguments for, with series parameters and argument
    reference series."""
    variables = argument.vars
    N = argument.order if order is None else min(order, argument.order)
    q = frac(q)
    arg = argument.truncate(N)
    one = TruncSeries.one(variables, N)

    def lift(p):
        return p.truncate(N) if isinstance(p, TruncSeries) else one.scale(p)

    uppers = [lift(p) for p in upper]
    lowers = [lift(p) for p in lower]
    out = num = den_inv = argpow = one
    ratio = Fraction(1)
    for j in range(1, N + 1):
        qk = q ** (j - 1)
        for u in uppers:
            num = num * (one - u.scale(qk))
        for rnum, rden in ratio_upper:
            ratio = ratio * (rden - rnum * qk)
        for low in lowers:
            den_inv = den_inv * series_inv(one - low.scale(qk))
        argpow = argpow * arg
        if argpow.is_zero():
            break
        out = out + (num * den_inv * argpow).scale(ratio * (Fraction(1) / qfac(q, j)))
    return out


def power_sum(z: fps.TruncSeries, weight, name: str) -> fps.TruncSeries:
    """1 + sum_k weight(k) z^k over k <= z.order, for the Euler-type expansions.

    z must have zero constant term, so z^k raises the valuation and the sum
    is finite at any truncation order.
    """
    if z.coeffs.get((0,) * len(z.vars)):
        raise ValueError(f"{name} needs a series with zero constant term")
    out = fps.TruncSeries.one(z.vars, z.order)
    power = fps.TruncSeries.one(z.vars, z.order)
    for k in range(1, z.order + 1):
        power = power * z
        if power.is_zero():
            break
        out = out + power.scale(weight(k))
    return out


# -- conveniences over the package's series ------------------------------------


def truncate(s: fps.TruncSeries, order: int) -> fps.TruncSeries:
    """s with its coefficients above `order` forgotten; never extends
    knowledge."""
    return fps.TruncSeries(s.vars, min(order, s.order), dict(s.coeffs))


def poch_series(p, q: Fraction, n: int, variables, order: int) -> fps.TruncSeries:
    """(p; q)_n where p is a ring element or series: prod_{k<n} (1 - p q^k)."""
    if isinstance(p, fps.TruncSeries):
        p = truncate(p, order)
    else:
        p = fps.TruncSeries.const(p, variables, order)
    return qpochs(p, q, n)[n]


def euler_expand(c, q: Fraction, order: int, var: str = "t") -> fps.TruncSeries:
    """(c t; q)_oo as a series in the single variable var."""
    return fps.euler_series(fps.TruncSeries.variable((var,), order, var).scale(c), q)


def euler_inv_expand(c, q: Fraction, order: int, var: str = "t") -> fps.TruncSeries:
    """1/(c t; q)_oo as a series in the single variable var."""
    return fps.euler_inv_series(fps.TruncSeries.variable((var,), order, var).scale(c), q)


def cauchy_expand(a, c, q: Fraction, order: int, var: str = "t") -> fps.TruncSeries:
    """(a c t; q)_oo / (c t; q)_oo as a series in the single variable var."""
    ct = fps.TruncSeries.variable((var,), order, var).scale(c)
    return fps.euler_series(ct.scale(a), q) * fps.euler_inv_series(ct, q)
