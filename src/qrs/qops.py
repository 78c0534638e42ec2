"""q-operator calculus: the q-derivative D_q, the exponential-type operator
T(b D_q), and E(D_xy) of the Cauchy-basis divided difference D_xy.

Operators act on truncated series (D_q in the series variable a) or on
Cauchy-basis expansions (D_xy). Both are degree lowering, so on truncated
or finite operands every operator sum below is finite and introduces no
truncation error of its own.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .families import CauchyExpansion, brs_poly
from .fps import (PhiSpec, TruncSeries, euler_inv_series, euler_series,
                  phi_series)
from .qcore import MultiPoly, frac, lincomb, qfac
from .reporting import IdentityReport


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


def t_op_graded(f: TruncSeries, q: Fraction, bvar: str = "b") -> TruncSeries:
    """T(b D_q) f with b tracked as a second series variable.

    The image's (a^m, b^n) coefficient is exact whenever m + n <= f.order,
    so the result is a bivariate series truncated at total degree f.order.
    This is the exactifiable form of the operator on infinite operands.
    """
    q = frac(q)
    avar = f.vars[0]
    if len(f.vars) != 1:
        raise ValueError("t_op_graded expects a univariate series")
    variables = tuple(sorted((avar, bvar)))
    apos = variables.index(avar)
    out = {}
    g = f
    for n in range(f.order + 1):
        if n > 0:
            g = dq_apply(g, q)
        w = Fraction(1) / qfac(q, n)
        for (m,), c in g.coeffs.items():
            idx = [0, 0]
            idx[apos] = m
            idx[1 - apos] = n
            out[tuple(idx)] = c * w
    return TruncSeries(variables, f.order, out)


# -- Cauchy-basis operators ---------------------------------------------------


class CauchyOperand(NamedTuple):
    """A truncated series whose coefficients are Cauchy-basis expansions,
    the operand of E(D_xy): coeffs maps index tuples to CauchyExpansion."""

    vars: tuple
    order: int
    coeffs: dict

    def coefficient(self, idx) -> CauchyExpansion:
        return self.coeffs[tuple(idx)]


def e_op_apply(operand: CauchyOperand) -> TruncSeries:
    """E(D_xy) = sum_k D_xy^k/(q;q)_k on a series of Cauchy expansions.

    D_xy sends P_n to (1 - q^n) P_(n-1), so E(D_xy) maps each basis
    polynomial P_k to the bivariate Rogers-Szego polynomial h_k(x,y|q),
    which is substituted directly.
    """
    out = {}
    for idx, c in operand.coeffs.items():
        if not isinstance(c, CauchyExpansion):
            raise TypeError("e_op_apply expects CauchyExpansion coefficients")
        out[idx] = e_apply_expansion(c)
    return TruncSeries(operand.vars, operand.order, out)


def e_apply_expansion(f: CauchyExpansion) -> MultiPoly:
    """E(D_xy) on one Cauchy expansion: sum_k c_k P_k -> sum_k c_k h_k(x,y|q)."""
    return lincomb((c, brs_poly(k, f.q)) for k, c in enumerate(f.coeffs))


def cauchy_operand(polys: dict, q: Fraction, order: int, cap: int | None = None,
                   variables=("t",)) -> CauchyOperand:
    """Lift a series of MultiPoly (or rational) coefficients, given as a dict
    from index tuples, to the Cauchy basis; indices above the order drop."""
    from .families import poly_to_cauchy
    lifted = {tuple(idx): p if isinstance(p, MultiPoly) else MultiPoly.const(p)
              for idx, p in polys.items() if sum(idx) <= order}
    return CauchyOperand(tuple(variables), order,
                         {idx: poly_to_cauchy(p, q, cap) for idx, p in lifted.items()})


# -- the two-parameter operator product transformation -----------------------


def t_op_product_sides(s, t, v, w, q: Fraction, order: int):
    """Both sides of T(bD_q){(av;q)_oo / ((as,at,aw;q)_oo)} as exact
    bivariate series in (a, b), truncated at total degree `order`.

    w = 0 gives the two-denominator-factor special case. Every coefficient
    is rational: the operator side is the graded T action on the a-series
    operand; the closed side is Euler products times a 3phi2 whose v/w
    parameter is handled as a homogenized ratio, so w = 0 stays polynomial.
    """
    s, t, v, w, q = frac(s), frac(t), frac(v), frac(w), frac(q)
    if not v:
        raise ValueError("v must be nonzero (it divides the 3phi2 argument)")
    a1 = TruncSeries.variable(("a",), order, "a")
    operand = euler_series(a1.scale(v), q) \
        * euler_inv_series(a1.scale(s), q) \
        * euler_inv_series(a1.scale(t), q) \
        * euler_inv_series(a1.scale(w), q)
    lhs = t_op_graded(operand, q, bvar="b")

    ab = ("a", "b")
    av = TruncSeries.variable(ab, order, "a")
    bv = TruncSeries.variable(ab, order, "b")
    abm = TruncSeries.monomial(ab, order, (1, 1))
    closed = euler_series(av.scale(v), q) * euler_series(bv.scale(v), q) \
        * euler_series(abm.scale(s * t * w / v), q)
    for c in (s, t, w):
        closed = closed * euler_inv_series(av.scale(c), q) \
            * euler_inv_series(bv.scale(c), q)
    spec = PhiSpec(
        upper=(v / s, v / t),
        ratio_upper=((v, w),),
        lower=(av.scale(v), bv.scale(v)),
        q=q,
        argument=abm.scale(s * t / v),
    )
    rhs = closed * phi_series(spec)
    return lhs, rhs


def zhang_wang_check(b, s, t, v, w, q: Fraction, order: int = 8) -> IdentityReport:
    """Machine check of the three-factor operator product transformation.

    The identity is verified as an exact bivariate (a,b) series at the given
    total order; the supplied b is recorded (any bound value follows from
    the graded statement) and must sit in (-1, 1) like the other parameters.
    This is the registry case zhang-wang at these parameters.
    """
    from .idverify import verify
    return verify("zhang-wang", order=order,
                  params={"b": b, "s": s, "t": t, "v": v, "w": w, "q": q})
