"""Polynomial families: Cauchy polynomials P_n(x,y), Rogers-Szego polynomials
h_n(x|q) and their bivariate extension h_n(x,y|q), continuous q-Hermite and
big q-Hermite polynomials, and their change-of-base expansions.

Every constructor is exact over rationals. The Cauchy and Rogers-Szego
families indexed by n at a base q, and the change-of-base coefficients
c_{n,n-2k}(p,q), are memoised in qcore's bounded tables (`memo_table`), so
repeated identity checks share one copy of each value; the q-Hermite
families are built as one list per call.
A polynomial in the span of the P_n is read in that basis only where it
is used, by `qops.e_op_apply`; transforms between families are in `idverify`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .qcore import MultiPoly, frac, lincomb, memo_table, qbinom, tri


def cauchy_poly(n: int, q: Fraction, x: str = "x", y: str = "y") -> MultiPoly:
    """Cauchy polynomial P_n(x,y) = (x-y)(x-qy)...(x-q^(n-1) y)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = frac(q)
    table = memo_table(("cauchy", x, y), q)
    if n not in table:
        xv, yv = MultiPoly.var(x), MultiPoly.var(y)
        table.setdefault(0, MultiPoly.const(1, (x, y)))
        for m in range(1, n + 1):
            if m not in table:
                table[m] = table[m - 1] * (xv - yv * q ** (m - 1))
    return table[n]


def rs_poly(n: int, q: Fraction, x: str = "x") -> MultiPoly:
    """Rogers-Szego polynomial h_n(x|q) = sum_k [n,k]_q x^k."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = frac(q)
    table = memo_table(("rs", x), q)
    if n not in table:
        table[n] = MultiPoly((x,), {(k,): qbinom(n, k, q) for k in range(n + 1)})
    return table[n]


def brs_poly(n: int, q: Fraction, x: str = "x", y: str = "y") -> MultiPoly:
    """Bivariate Rogers-Szego polynomial h_n(x,y|q) = sum_k [n,k]_q P_k(x,y)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = frac(q)
    table = memo_table(("brs", x, y), q)
    if n not in table:
        table[n] = lincomb((qbinom(n, k, q), cauchy_poly(k, q, x, y)) for k in range(n + 1))
    return table[n]


def _a_elem(a):
    """Normalize the big q-Hermite shift parameter: rational or MultiPoly."""
    if isinstance(a, str):
        return MultiPoly.var(a)
    if isinstance(a, MultiPoly):
        return a
    return frac(a)


def big_qhermite_polys(n: int, a, q: Fraction) -> list:
    """[H_0, ..., H_n] of the big q-Hermite family H_k(x;a|q), built by the
    three-term recurrence (Koekoek, Lesky & Swarttouw 2010, section 14.18)

        H_(k+1) = (2x - a q^k) H_k - (1 - q^k) H_(k-1),  H_0 = 1.

    a may be a rational or a symbol. The list is built afresh on each call
    and not memoised: a caller that wants several degrees at one (a, q)
    holds one list.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, q = _a_elem(a), frac(q)
    two_x = MultiPoly.var("x") * 2
    polys, qk = [MultiPoly.const(1)], Fraction(1)
    for k in range(n):
        step = polys[k] * (two_x - a * qk)
        polys.append(lincomb(((step,), (qk - 1, polys[k - 1]))) if k else step)
        qk *= q
    return polys


def big_qhermite_poly(n: int, a, q: Fraction) -> MultiPoly:
    """Big q-Hermite H_n(x;a|q) as a polynomial in x, the last entry of
    `big_qhermite_polys`."""
    return big_qhermite_polys(n, a, q)[n]


def qhermite_poly(n: int, q: Fraction) -> MultiPoly:
    """Continuous q-Hermite H_n(x|q), the a = 0 case of the big family."""
    return big_qhermite_poly(n, Fraction(0), q)


def qhermite_circle(a, q, theta: float):
    """The map n -> H_n(cos theta; a|q) at one (a, q, theta), by the
    three-term recurrence (Koekoek, Lesky & Swarttouw 2010, section 14.18)

        H_(n+1) = (2 cos theta - a q^n) H_n - (1 - q^n) H_(n-1),
        H_0 = 1,  H_1 = 2 cos theta - a.

    Unlike the circle sum sum_k [n,k] (a z; q)_k z^(n-2k), it does not
    cancel for q near 1. It runs forward in Reinsch's form, on the steps
    d_n = H_n - H_(n-1) with 2 cos theta = 2 - s, s = 4 sin^2(theta/2):

        d_(n+1) = d_n - (s + a q^n) H_n + q^n H_(n-1),

    so neither the rounding of cos theta nor the near-cancelling steps at
    x near 1 cost n^2 ulps. For cos theta < 0 it runs at -x with -a, as
    H_n(-x; a|q) = (-1)^n H_n(x; -a|q). The values are kept in one list, so
    each new n costs O(1) and H_n is the same float whichever n were asked
    for before it.
    """
    q, a = float(q), complex(a)
    flip = math.cos(theta) < 0
    if flip:
        a, s = -a, 4 * math.cos(0.5 * theta) ** 2
    else:
        s = 4 * math.sin(0.5 * theta) ** 2
    d = 1 - s - a
    before, last, qn = 1.0 + 0j, 1 + d, q     # H_(n-1), H_n, q^n at n = 1
    values = [before, -last if flip else last]

    def hermite(n: int) -> complex:
        nonlocal before, last, d, qn
        if n < 0:
            raise ValueError("n must be nonnegative")
        while len(values) <= n:
            d = d - (s + a * qn) * last + qn * before
            before, last = last, last + d
            qn *= q
            values.append(-last if flip and len(values) % 2 else last)
        return values[n]
    return hermite


# -- change of base ---------------------------------------------------------


def change_base_c(n: int, k: int, p: Fraction, q: Fraction) -> Fraction:
    """Connection coefficient c_{n, n-2k}(p,q) in
    H_n(x|p) = sum_k c_{n,n-2k}(p,q) H_{n-2k}(x|q).

    Gaussian binomials with out-of-range lower index vanish, which covers
    the [n, -1] = 0 boundary term. Values are memoised by (n, k) in a table
    tagged with p at base q.
    """
    p, q = frac(p), frac(q)
    if k < 0 or 2 * k > n:
        return Fraction(0)
    table = memo_table(("change_base_c", p.numerator, p.denominator), q)
    if (n, k) not in table:
        table[n, k] = sum(
            Fraction((-1) ** j)
            * p ** (k - j)
            * q ** tri(j + 1)
            * qbinom(n - 2 * k + j, j, q)
            * (qbinom(n, k - j, p) - p ** (n - 2 * k + 2 * j + 1) * qbinom(n, k - j - 1, p))
            for j in range(k + 1))
    return table[n, k]


def change_base_big(n: int, a: Fraction, p: Fraction, q: Fraction) -> list:
    """Pairs (m, e_m) with H_n(x;a|p) = sum_m e_m H_m(x;a|q).

    Composed from three exact expansions: strip the shift parameter at base
    p, change the q-Hermite base with change_base_c, and reattach the shift
    parameter at base q.
    """
    p, q, a = frac(p), frac(q), frac(a)
    out = [Fraction(0)] * (n + 1)
    for j in range(n + 1):
        w1 = qbinom(n, j, p) * Fraction((-1) ** j) * p ** tri(j) * a ** j
        if not w1:
            continue
        nj = n - j
        for l in range(nj // 2 + 1):
            w2 = w1 * change_base_c(nj, l, p, q)
            if not w2:
                continue
            nu = nj - 2 * l
            for m in range(nu + 1):
                out[nu - m] += w2 * qbinom(nu, m, q) * a ** m
    return list(enumerate(out))
