"""Reference routes for the q-operators: E(D_xy) by the divided difference
D_xy and the finite operator sum, which `qrs.qops.e_op_apply` replaces by
substituting the bivariate Rogers-Szego polynomials for the Cauchy basis,
and T(b D_q) with a scalar b by repeated q-derivatives, which
`qrs.qops.t_op_graded` replaces by substituting q-binomial sums for the
powers of the series variable.

A Cauchy-basis element sum_k c_k P_k(x,y) is given here as its coefficient
list [c_0, c_1, ...] and the base q; `to_poly` expands it. `dxy_poly` is the
defining quotient on polynomials, `dxy_apply` its action on coefficient
lists, and `e_apply_by_operator` sums D_xy^k/(q;q)_k term by term.
`dq_apply` is the q-derivative in a series variable, and `t_op_apply` sums
(b D_q)^n/(q;q)_n term by term. They are slow but follow the definitions,
so test_qops.py checks the package's operators against them. They are not
part of the package and nothing outside the tests imports them.
"""

from __future__ import annotations

from fractions import Fraction

from reference_multipoly import as_univariate, substitute

from qrs.families import cauchy_poly
from qrs.fps import TruncSeries
from qrs.qcore import MultiPoly, frac, lincomb, qfac


def to_poly(coeffs, q: Fraction) -> MultiPoly:
    """sum_k c_k P_k(x,y) for the coefficient list [c_0, c_1, ...]."""
    return lincomb((c, cauchy_poly(k, q)) for k, c in enumerate(coeffs))


def dxy_apply(coeffs, q: Fraction) -> list:
    """Divided difference on the Cauchy basis: P_n -> (1 - q^n) P_(n-1)."""
    q = frac(q)
    return [c * (1 - q ** k) for k, c in enumerate(coeffs) if k > 0]


def dq_apply(f: TruncSeries, q: Fraction, var: str | None = None) -> TruncSeries:
    """q-derivative in the series variable: a^n -> (1 - q^n) a^(n-1).

    Equals (f(a) - f(aq))/a. One order of knowledge is consumed: the output
    order drops by one, because the input's missing tail would have fed the
    top coefficient.
    """
    q = frac(q)
    if len(f.vars) != 1 and var is None:
        raise ValueError("dq_apply needs the variable name for bivariate series")
    pos = 0 if var is None else f.vars.index(var)
    if f.order == 0:
        raise ValueError("cannot lower the order of an order-0 series")
    out = {}
    for idx, c in f.coeffs.items():
        n = idx[pos]
        if n == 0:
            continue
        new = list(idx)
        new[pos] = n - 1
        out[tuple(new)] = c * (1 - q ** n)
    return TruncSeries(f.vars, f.order - 1, out)


def dxy_poly(f: MultiPoly, q: Fraction, x: str = "x", y: str = "y") -> MultiPoly:
    """The defining quotient (f(x, y/q) - f(qx, y)) / (x - y/q).

    Only defined on the span of the Cauchy basis, where the division is
    exact; anything else raises.
    """
    q = frac(q)
    numer = substitute(f, {y: MultiPoly.var(y) * (Fraction(1) / q)}) \
        - substitute(f, {x: MultiPoly.var(x) * q})
    return _divide_linear(numer, x, MultiPoly.var(y) * (Fraction(1) / q))


def _divide_linear(f: MultiPoly, x: str, beta: MultiPoly) -> MultiPoly:
    """Exact division of f by (x - beta) with beta free of x."""
    by_deg = as_univariate(f, x)
    d = max(by_deg, default=0)
    xv = MultiPoly.var(x)
    quot = MultiPoly.const(0)
    carry = MultiPoly.const(0)
    for i in range(d, 0, -1):
        coef = by_deg.get(i, MultiPoly.const(0)) + carry
        quot = quot + xv ** (i - 1) * coef
        carry = coef * beta
    rem = by_deg.get(0, MultiPoly.const(0)) + carry
    if rem:
        raise ValueError("division by (x - y/q) is not exact")
    return quot


def e_apply_by_operator(coeffs, q: Fraction) -> MultiPoly:
    """E(D_xy) f = sum_k D_xy^k f / (q;q)_k for f = sum_k c_k P_k, the sum
    ending where D_xy^k f vanishes."""
    terms = []
    while coeffs:
        terms.append((Fraction(1) / qfac(q, len(terms)), to_poly(coeffs, q)))
        coeffs = dxy_apply(coeffs, q)
    return lincomb(terms)


def t_op_apply(b, f: TruncSeries, q: Fraction, terms: int | None = None) -> TruncSeries:
    """T(b D_q) f = sum_n (b D_q)^n f / (q;q)_n on a univariate series.

    b is a ring element. The coefficient of a^m keeps contributions from
    operator terms n <= f.order - m, which is every nonzero one when f is an
    exact polynomial padded to at least twice its degree; for genuine
    truncations it is the graded reading (b counted as degree 1).
    """
    q = frac(q)
    n_max = f.order if terms is None else min(terms, f.order)
    acc = dict(f.coeffs)
    g = f
    bpow = b
    for n in range(1, n_max + 1):
        g = dq_apply(g, q)
        w = Fraction(1) / qfac(q, n)
        for idx, c in g.coeffs.items():
            add = c * w * bpow
            acc[idx] = acc[idx] + add if idx in acc else add
        bpow = bpow * b
    return TruncSeries(f.vars, f.order, acc)
