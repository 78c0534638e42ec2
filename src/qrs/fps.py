"""Truncated formal power series in one or two variables, Euler product
expansions, and basic hypergeometric series.

Coefficients live in a commutative ring: exact rationals, MultiPoly values,
or (for numeric work) complex floats. Bivariate series are truncated by
total degree. Operations on series of different orders propagate the
minimum order, which is the honest amount of information available.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import count, starmap
from operator import add, mul

from .qcore import MultiPoly, frac, lincomb, qfac, qpochs, tri

_SCALARS = (int, Fraction, float, complex)


def is_zero_elem(e) -> bool:
    if isinstance(e, MultiPoly):
        return e.is_zero()
    return e == 0


def invert_elem(e):
    """Multiplicative inverse of a ring unit (scalars and constant polys)."""
    if isinstance(e, MultiPoly):
        c = e.constant_value()
        if not c:
            raise ZeroDivisionError("cannot invert zero")
        return Fraction(1) / c
    if isinstance(e, (int, Fraction)):
        if not e:
            raise ZeroDivisionError("cannot invert zero")
        return Fraction(1) / Fraction(e)
    return 1.0 / e


class TruncSeries:
    """Power series known exactly through total degree `order`.

    coeffs maps index tuples (one entry per series variable) to ring
    elements; absent indices are zero. Indices beyond the order are dropped
    at construction, so arithmetic needs no range bookkeeping.
    """

    __slots__ = ("vars", "order", "coeffs")

    def __init__(self, variables, order: int, coeffs: dict):
        variables = tuple(variables)
        if not 1 <= len(variables) <= 2:
            raise ValueError("series support one or two variables")
        if order < 0:
            raise ValueError("order must be nonnegative")
        clean = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != len(variables):
                raise ValueError("index arity does not match variables")
            if any(i < 0 for i in idx):
                raise ValueError("negative series exponent")
            if sum(idx) <= order and not is_zero_elem(c):
                clean[idx] = c
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", clean)

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

    def coefficient(self, idx):
        return self.coeffs.get(tuple(idx), Fraction(0))

    def constant_term(self):
        return self.coefficient((0,) * len(self.vars))

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncate(self, order: int) -> "TruncSeries":
        """Forget coefficients above `order`. Never extends knowledge."""
        if order >= self.order:
            return self
        return TruncSeries(self.vars, order, self.coeffs)

    def _compat(self, other: "TruncSeries") -> int:
        if self.vars != other.vars:
            raise ValueError(f"series variable mismatch: {self.vars} vs {other.vars}")
        return min(self.order, other.order)

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
                if key in pairs:
                    pairs[key].append((c1, c2))
                else:
                    pairs[key] = [(c1, c2)]
        return TruncSeries(self.vars, order,
                           {key: _dot(terms) for key, terms in pairs.items()})

    __rmul__ = __mul__

    def scale(self, elem) -> "TruncSeries":
        if is_zero_elem(elem):
            return TruncSeries.zero(self.vars, self.order)
        return TruncSeries(self.vars, self.order, {i: c * elem for i, c in self.coeffs.items()})

    def shift(self, idx) -> "TruncSeries":
        """Multiply by the monomial with exponent tuple idx."""
        idx = tuple(idx)
        return TruncSeries(self.vars, self.order,
                           {tuple(a + b for a, b in zip(i, idx)): c
                            for i, c in self.coeffs.items()})

    # -- comparison ---------------------------------------------------------

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

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            other = self._wrap(other)
            if other is None:
                return NotImplemented
        if self.vars != other.vars:
            return False
        return self.diff_witness(other) is None

    __hash__ = None

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        for idx in sorted(self.coeffs):
            c = self.coeffs[idx]
            poly = c if isinstance(c, MultiPoly) else MultiPoly.const(c)
            entries.append({"deg": list(idx), "poly": poly.to_json_dict()})
        return {"vars": list(self.vars), "order": self.order, "coeffs": entries}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TruncSeries":
        return cls(tuple(d["vars"]), d["order"],
                   {tuple(e["deg"]): MultiPoly.from_json_dict(e["poly"]) for e in d["coeffs"]})

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


def _dot(terms: list, scale=1):
    """scale * sum of a * b over the nonempty list of (a, b) pairs in terms.

    With a polynomial among them the sum is one `lincomb`; scalar pairs
    (rational or float) keep a plain sum of products.
    """
    for a, b in terms:
        if type(a) is MultiPoly or type(b) is MultiPoly:
            return lincomb((scale, a, b) for a, b in terms)
    total = reduce(add, starmap(mul, terms))
    return total if scale == 1 else total * scale


def series_inv(f: TruncSeries) -> TruncSeries:
    """Inverse of a series whose constant term is a ring unit.

    Solved degree layer by degree layer from g_0 = 1/f_0 and the convolution
    recurrence sum_{k<=n} f_k g_{n-k} = 0; exact for exact coefficients.
    """
    inv0 = invert_elem(f.constant_term())
    n = len(f.vars)
    out = {(0,) * n: inv0}
    nonconst = {i: c for i, c in f.coeffs.items() if any(i)}
    for total in range(1, f.order + 1):
        for idx in _indices_of_total(n, total):
            terms = []
            for fi, fc in nonconst.items():
                gi = tuple(a - b for a, b in zip(idx, fi))
                gc = out.get(gi)
                if gc is not None:
                    terms.append((fc, gc))
            if terms:
                g = _dot(terms, -inv0)
                if not is_zero_elem(g):
                    out[idx] = g
    return TruncSeries(f.vars, f.order, out)


def _indices_of_total(nvars: int, total: int):
    if nvars == 1:
        return [(total,)]
    return [(i, total - i) for i in range(total + 1)]


def as_series(value, variables, order: int) -> TruncSeries:
    """Lift a ring element (or pass a series through) into the given frame."""
    if isinstance(value, TruncSeries):
        if value.vars != tuple(variables):
            raise ValueError("series variable mismatch")
        return value.truncate(order)
    return TruncSeries.const(value, variables, order)


def poch_series(p, q: Fraction, n: int, variables, order: int) -> TruncSeries:
    """(p; q)_n where p is a ring element or series: prod_{k<n} (1 - p q^k)."""
    return qpochs(as_series(p, variables, order), q, n)[n]


def _power_sum(z: TruncSeries, weight, name: str) -> TruncSeries:
    """1 + sum_k weight(k) z^k over k <= z.order, for the Euler-type expansions.

    z must have zero constant term, so z^k raises the valuation and the sum
    is finite at any truncation order.
    """
    if not is_zero_elem(z.constant_term()):
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


def cauchy_series(a, z: TruncSeries, q: Fraction) -> TruncSeries:
    """sum_k (a;q)_k z^k / (q;q)_k, whose closed form is (az;q)_oo/(z;q)_oo.

    a is a ring element (rational or MultiPoly).
    """
    q = frac(q)
    pochs = qpochs(a, q, z.order)
    return _power_sum(z, lambda k: pochs[k] * (Fraction(1) / qfac(q, k)),
                      "cauchy_series")


def euler_expand(c, q: Fraction, order: int, var: str = "t") -> TruncSeries:
    """(c t; q)_oo as a series in the single variable var."""
    z = TruncSeries.variable((var,), order, var).scale(c)
    return euler_series(z, q)


def euler_inv_expand(c, q: Fraction, order: int, var: str = "t") -> TruncSeries:
    """1/(c t; q)_oo as a series in the single variable var."""
    z = TruncSeries.variable((var,), order, var).scale(c)
    return euler_inv_series(z, q)


def cauchy_expand(a, c, q: Fraction, order: int, var: str = "t") -> TruncSeries:
    """(a c t; q)_oo / (c t; q)_oo as a series in the single variable var."""
    z = TruncSeries.variable((var,), order, var).scale(c)
    return cauchy_series(a, z, q)


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
    out = one
    num = one
    den_inv = one
    argpow = one
    ratio = Fraction(1)
    for j in range(1, N + 1):
        qk = q ** (j - 1)
        for u in uppers:
            num = num * (one - u.scale(qk))
        for rnum, rden in spec.ratio_upper:
            ratio = ratio * (rden - rnum * qk)
        for l in lowers:
            den_inv = den_inv * series_inv(one - l.scale(qk))
        argpow = argpow * arg
        if argpow.is_zero():
            break
        out = out + (num * den_inv * argpow).scale(ratio * (Fraction(1) / qfac(q, j)))
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
