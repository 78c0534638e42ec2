"""q-operator calculus: the exponential-type operators T(b D_q), built on
the q-derivative D_q, and E(D_xy), built on the Cauchy-basis divided
difference D_xy.

Each operator is one coefficient-wise basis substitution on a truncated
series. T(b D_q) sends a^k to sum_n [k,n] a^(k-n) b^n, and E(D_xy) sends the
Cauchy polynomial P_k(x,y) to h_k(x,y|q). Both operators lower degree, so
their operator sums are finite on every coefficient and introduce no
truncation error of their own. The identities they enter are in `idverify`.
"""

from __future__ import annotations

from fractions import Fraction

from .families import brs_poly, cauchy_poly
from .fps import TruncSeries
from .qcore import MultiPoly, _split, frac, lincomb, qbinom


def t_op_graded(f: TruncSeries, q: Fraction) -> TruncSeries:
    """T(b D_q) f with b tracked as a second series variable.

    T(b D_q) = sum_n (b D_q)^n/(q;q)_n sends a^k to sum_n [k,n] a^(k-n) b^n,
    so the image's (a^m, b^n) coefficient is f_(m+n) [m+n,n]. It is exact
    whenever m + n <= f.order, so the result is a bivariate series truncated
    at total degree f.order, with its variables in sorted order. This is
    the exactifiable form of the operator on infinite operands.
    """
    q = frac(q)
    if len(f.vars) != 1:
        raise ValueError("t_op_graded expects a univariate series")
    # [k,n] = [k,k-n], so (k - n, n) keys the image in either variable order
    out = {}
    for (k,), c in f.coeffs.items():
        for n in range(k + 1):
            out[(k - n, n)] = c * qbinom(k, n, q)
    return TruncSeries(tuple(sorted((f.vars[0], "b"))), f.order, out)


def e_op_apply(f: TruncSeries, q: Fraction) -> TruncSeries:
    """E(D_xy) = sum_k D_xy^k/(q;q)_k, coefficient by coefficient.

    D_xy sends P_n to (1 - q^n) P_(n-1), so E(D_xy) maps each Cauchy
    polynomial P_k(x,y) to the bivariate Rogers-Szego polynomial h_k(x,y|q).
    P_k is the one basis element with the monomial x^k y^0, so a
    coefficient's parts p_k are its x^k y^0 coefficients. A coefficient that
    sum_k p_k P_k does not rebuild is outside the span, where D_xy is not
    defined, and raises ValueError.
    """
    q = frac(q)
    out = {}
    for idx, c in f.coeffs.items():
        if not isinstance(c, MultiPoly):
            c = MultiPoly.const(c)
        parts = _cauchy_parts(c)
        if lincomb((p, cauchy_poly(k, q)) for k, p in enumerate(parts)) != c:
            raise ValueError(f"coefficient {idx} is not in the Cauchy basis span")
        out[idx] = lincomb((p, brs_poly(k, q)) for k, p in enumerate(parts))
    return TruncSeries(f.vars, f.order, out)


def _cauchy_parts(c: MultiPoly) -> list:
    """[p_0, ..., p_d] for d the degree of c in x: p_k is the x^k y^0
    coefficient of c, a polynomial in its other variables."""
    parts = _split(c, ("x", "y"))
    zero = MultiPoly.const(0, tuple(v for v in c.vars if v not in ("x", "y")))
    return [parts.get((k, 0), zero) for k in range(max((i for i, _ in parts), default=0) + 1)]
