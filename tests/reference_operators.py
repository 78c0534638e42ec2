"""Reference routes for the q-operators: E(D_xy) by the divided difference
D_xy and the finite operator sum, which `qrs.qops.e_op_apply` replaces by
substituting the bivariate Rogers-Szego polynomials for the Cauchy basis,
and T(b D_q) with a scalar b, which `qrs.qops.t_op_graded` replaces by
tracking b as a second series variable.

`dxy_poly` is the defining quotient on polynomials, `dxy_apply` its action
on Cauchy-basis coefficients, and `e_apply_by_operator` sums
D_xy^k/(q;q)_k term by term; `t_op_apply` sums (b D_q)^n/(q;q)_n term by
term. They are slow but follow the definitions, so test_qops.py checks the
package's operators against them. They are not part of the package and
nothing outside the tests imports them.
"""

from __future__ import annotations

from fractions import Fraction

from qrs.families import CauchyExpansion
from qrs.fps import TruncSeries
from qrs.qcore import MultiPoly, frac, lincomb, qfac
from qrs.qops import dq_apply


def dxy_apply(f: CauchyExpansion) -> CauchyExpansion:
    """Divided difference on the Cauchy basis: P_n -> (1 - q^n) P_(n-1)."""
    q = f.q
    return CauchyExpansion(
        [f.coefficient(k + 1) * (1 - q ** (k + 1)) for k in range(len(f) - 1)], q)


def dxy_poly(f: MultiPoly, q: Fraction, x: str = "x", y: str = "y") -> MultiPoly:
    """The defining quotient (f(x, y/q) - f(qx, y)) / (x - y/q).

    Only defined on the span of the Cauchy basis, where the division is
    exact; anything else raises.
    """
    q = frac(q)
    numer = f.substitute({y: MultiPoly.var(y) * (Fraction(1) / q)}) \
        - f.substitute({x: MultiPoly.var(x) * q})
    return _divide_linear(numer, x, MultiPoly.var(y) * (Fraction(1) / q))


def _divide_linear(f: MultiPoly, x: str, beta: MultiPoly) -> MultiPoly:
    """Exact division of f by (x - beta) with beta free of x."""
    by_deg = f.as_univariate(x)
    d = max(by_deg, default=0)
    xv = MultiPoly.var(x)
    quot = MultiPoly.const(0)
    carry = MultiPoly.const(0)
    for i in range(d, 0, -1):
        coef = by_deg.get(i, MultiPoly.const(0)) + carry
        quot = quot + xv ** (i - 1) * coef
        carry = coef * beta
    rem = by_deg.get(0, MultiPoly.const(0)) + carry
    if not rem.is_zero():
        raise ValueError("division by (x - y/q) is not exact")
    return quot


def e_apply_by_operator(f: CauchyExpansion) -> MultiPoly:
    """E(D_xy) f = sum_k D_xy^k f / (q;q)_k, the sum ending where D_xy^k f
    vanishes."""
    q = f.q
    terms = []
    g = f
    while len(g):
        terms.append((Fraction(1) / qfac(q, len(terms)), g.to_poly()))
        g = dxy_apply(g)
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
