"""Polynomial families: Cauchy polynomials P_n(x,y), Rogers-Szego polynomials
h_n(x|q) and their bivariate extension h_n(x,y|q), continuous q-Hermite and
big q-Hermite polynomials, and change-of-base expansions between them.

Every constructor is exact over rationals; the families indexed by n at a
base q are memoised in qcore's bounded tables (`memo_table`), so repeated
identity checks share one copy of each polynomial.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .qcore import (LaurentPoly, MultiPoly, frac, lincomb, memo_table, qbinom,
                    qfacs, qpochs, tri)


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


def big_qhermite_laurent(n: int, a, q: Fraction, z: str = "z") -> LaurentPoly:
    """Big q-Hermite H_n(x;a|q) on the unit circle, x = cos(theta), z = e^(i theta):

        H_n = sum_k [n,k]_q (a z; q)_k z^(n-2k).

    a may be a rational or a symbol; the result is symmetric under z -> 1/z.
    Multiplied by z^n the sum is an ordinary polynomial in z,

        z^n H_n = sum_k [n,k]_q (a z; q)_k z^(2n-2k),

    which is built as one `lincomb` over the running products (az; q)_k; the
    coefficient of z^d is the Laurent coefficient of z^(d-n).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, q = _a_elem(a), frac(q)
    table = memo_table(("big", z, type(a), a), q)
    if n not in table:
        zv = MultiPoly.var(z)
        pochs = qpochs(zv * a, q, n)
        shifted = lincomb((qbinom(n, k, q), pochs[k], zv ** (2 * n - 2 * k))
                          for k in range(n + 1))
        table[n] = LaurentPoly({d - n: c for d, c in shifted.as_univariate(z).items()}, z)
    return table[n]


def big_qhermite_poly(n: int, a, q: Fraction, x: str = "x") -> MultiPoly:
    """Big q-Hermite H_n(x;a|q) as a polynomial in x (Chebyshev folding)."""
    return big_qhermite_laurent(n, a, q).to_x_poly(x)


def qhermite_poly(n: int, q: Fraction, x: str = "x") -> MultiPoly:
    """Continuous q-Hermite H_n(x|q), the a = 0 case of the big family."""
    return big_qhermite_poly(n, Fraction(0), q, x)


def qhermite_laurent(n: int, q: Fraction, z: str = "z") -> LaurentPoly:
    return big_qhermite_laurent(n, Fraction(0), q, z)


def qhermite_eval(n: int, a, q, theta: float) -> complex:
    """Numeric H_n(cos theta; a|q) straight from the circle representation.

    Float arithmetic, O(n) per call after the memoised weights; meant for
    quadrature and numeric series work where exact values are overkill.
    """
    return qhermite_circle(a, q, theta)(n)


def qhermite_circle(a, q, theta: float):
    """The map n -> H_n(cos theta; a|q) at one (a, q, theta), by the circle
    sum sum_k [n,k] (a z; q)_k z^(n-2k), z = e^(i theta).

    The products (a z; q)_k, the powers q^k and z^e are each built once and
    extended as n grows, with the same float expressions in the same order
    as a sum built afresh for every n, so H_n is the same float whichever
    n were asked for before it.
    """
    q = float(q)
    zi = cmath.exp(1j * theta)
    az = complex(a) * zi
    pochs = [1.0 + 0j]
    zpows = {0: zi ** 0}

    def hermite(n: int) -> complex:
        while len(pochs) <= n:
            pochs.append(pochs[-1] * (1 - az * q ** (len(pochs) - 1)))
        # the powers of one parity run contiguously up from 0 or 1
        for e in range(n, 0, -2):
            if e in zpows:
                break
            zpows[e], zpows[-e] = zi ** e, zi ** -e
        total = 0j
        for binom, poch, e in zip(_hermite_weights(n, q), pochs, range(n, -n - 1, -2)):
            total += binom * poch * zpows[e]
        return total
    return hermite


def _hermite_weights(n: int, q: float) -> tuple:
    """The float weights [n, k] = (q;q)_n / ((q;q)_k (q;q)_(n-k)), k <= n, of
    qhermite_circle's sum, memoised per q and n."""
    table = memo_table("hermite", q)
    if n not in table:
        qk = qfacs(q, n)
        table[n] = tuple(qk[n] / (qk[k] * qk[n - k]) for k in range(n + 1))
    return table[n]


# -- transforms between the classical and bivariate families ---------------


def rs_to_brs_coeffs(n: int, q: Fraction, y: str = "y") -> list:
    """Coefficients c_m(y) with h_n(x|q) = sum_m c_m h_m(x,y|q)."""
    q = frac(q)
    return [MultiPoly((y,), {(n - m,): qbinom(n, n - m, q)}) for m in range(n + 1)]


def brs_to_rs_coeffs(n: int, q: Fraction, y: str = "y") -> list:
    """Coefficients c_m(y) with h_n(x,y|q) = sum_m c_m h_m(x|q)."""
    q = frac(q)
    return [
        MultiPoly((y,), {(n - m,): Fraction((-1) ** (n - m)) * q ** tri(n - m) * qbinom(n, n - m, q)})
        for m in range(n + 1)
    ]


def rs_combo_to_brs(coeffs: list, q: Fraction, y: str = "y") -> list:
    """Rewrite sum_n a_n h_n(x|q) as sum_m b_m(y) h_m(x,y|q)."""
    return _recombine(coeffs, [rs_to_brs_coeffs(n, q, y) for n in range(len(coeffs))])


def brs_combo_to_rs(coeffs: list, q: Fraction, y: str = "y") -> list:
    """Rewrite sum_n a_n h_n(x,y|q) as sum_m b_m(y) h_m(x|q)."""
    return _recombine(coeffs, [brs_to_rs_coeffs(n, q, y) for n in range(len(coeffs))])


def _recombine(coeffs: list, rows: list) -> list:
    """b_m = sum_n rows[n][m] a_n, where rows[n] has entries m <= n."""
    return [lincomb((rows[n][m], a_n) for n, a_n in enumerate(coeffs) if n >= m)
            for m in range(len(coeffs))]


def ybinom_brs(n: int, q: Fraction) -> MultiPoly:
    """The y-binomial transform sum_k [n,k] y^k h_(n-k)(x,y|q), which equals
    h_n(x|q)."""
    q = frac(q)
    return lincomb((c, brs_poly(m, q)) for m, c in enumerate(rs_to_brs_coeffs(n, q)))


def h_to_bivariate(n: int, q: Fraction):
    """Both expansion identities relating h_n(x|q) and h_n(x,y|q).

    Returns ((lhs1, rhs1), (lhs2, rhs2)) as MultiPoly pairs:
      lhs1 = h_n(x|q)      rhs1 = ybinom_brs(n, q)
      lhs2 = h_n(x,y|q)    rhs2 = sum_k [n,k] (-1)^k q^(k(k-1)/2) y^k h_(n-k)(x|q)
    """
    q = frac(q)
    rhs2 = lincomb((c, rs_poly(m, q)) for m, c in enumerate(brs_to_rs_coeffs(n, q)))
    return (rs_poly(n, q), ybinom_brs(n, q)), (brs_poly(n, q), rhs2)


# -- change of base ---------------------------------------------------------


def change_base_c(n: int, k: int, p: Fraction, q: Fraction) -> Fraction:
    """Connection coefficient c_{n, n-2k}(p,q) in
    H_n(x|p) = sum_k c_{n,n-2k}(p,q) H_{n-2k}(x|q).

    Gaussian binomials with out-of-range lower index vanish, which covers
    the [n, -1] = 0 boundary term.
    """
    p, q = frac(p), frac(q)
    if k < 0 or 2 * k > n:
        return Fraction(0)
    total = Fraction(0)
    for j in range(k + 1):
        total += (
            Fraction((-1) ** j)
            * p ** (k - j)
            * q ** tri(j + 1)
            * qbinom(n - 2 * k + j, j, q)
            * (qbinom(n, k - j, p) - p ** (n - 2 * k + 2 * j + 1) * qbinom(n, k - j - 1, p))
        )
    return total


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


# -- Cauchy basis ------------------------------------------------------------


class CauchyExpansion:
    """Finite combination sum_k c_k P_k(x,y) in the Cauchy basis at base q.

    Coefficients are ring elements free of x and y (rationals or polys in
    spectator symbols). Supports addition and scalar multiplication, which
    is all the operator calculus needs; products leave the basis span.
    """

    __slots__ = ("coeffs", "q")

    def __init__(self, coeffs, q: Fraction):
        coeffs = list(coeffs)
        while coeffs and _is_zero_c(coeffs[-1]):
            coeffs.pop()
        for c in coeffs:
            if isinstance(c, MultiPoly) and ("x" in c.vars or "y" in c.vars) \
                    and (c.degree_in("x") or c.degree_in("y")):
                raise ValueError("Cauchy coefficients must not involve x or y")
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "q", frac(q))

    def __setattr__(self, name, value):
        raise AttributeError("CauchyExpansion is immutable")

    def __len__(self):
        return len(self.coeffs)

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        if not isinstance(other, CauchyExpansion):
            return NotImplemented
        if other.q != self.q:
            raise ValueError("Cauchy base mismatch")
        size = max(len(self), len(other))
        return CauchyExpansion(
            [self.coefficient(k) + other.coefficient(k) for k in range(size)], self.q)

    def __neg__(self):
        return CauchyExpansion([-c for c in self.coeffs], self.q)

    def __sub__(self, other):
        if not isinstance(other, CauchyExpansion):
            return NotImplemented
        return self + (-other)

    def scale(self, elem) -> "CauchyExpansion":
        return CauchyExpansion([c * elem for c in self.coeffs], self.q)

    def __mul__(self, elem):
        if isinstance(elem, CauchyExpansion):
            raise TypeError("products of Cauchy expansions leave the basis span")
        return self.scale(elem)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, CauchyExpansion):
            return NotImplemented
        return self.q == other.q and len(self) == len(other) and all(
            _is_zero_c(self.coefficient(k) - other.coefficient(k)) for k in range(len(self)))

    def to_poly(self, x: str = "x", y: str = "y") -> MultiPoly:
        return lincomb((c, cauchy_poly(k, self.q, x, y)) for k, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"CauchyExpansion({list(self.coeffs)}, q={self.q})"


def _is_zero_c(c) -> bool:
    return c.is_zero() if isinstance(c, MultiPoly) else c == 0


def poly_to_cauchy(f: MultiPoly, q: Fraction, cap: int | None = None,
                   x: str = "x", y: str = "y") -> CauchyExpansion:
    """Expand a polynomial in the Cauchy basis, failing if it is not in the
    span of {P_k(x,y)} over x,y-free coefficients.

    P_k is the unique basis element containing the monomial x^k y^0, so the
    coefficients can be read off directly; the residual must vanish.
    """
    q = frac(q)
    deg = f.degree_in(x)
    if cap is not None and deg > cap:
        raise ValueError(f"degree {deg} exceeds the Cauchy cap {cap}")
    coeffs = [f.partial_coefficient({x: k, y: 0}) for k in range(deg + 1)]
    exp = CauchyExpansion(coeffs, q)
    if exp.to_poly(x, y) != f:
        raise ValueError("polynomial is not in the Cauchy basis span")
    return exp
